// Unit tests for the numerics substrate: matrices/LU, quadrature, roots,
// Laplace transforms.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "numerics/laplace.hpp"
#include "numerics/matrix.hpp"
#include "numerics/quadrature.hpp"
#include "numerics/roots.hpp"

namespace {

using hap::numerics::ExponentialMixture;
using hap::numerics::GaussLaguerreRule;
using hap::numerics::integrate;
using hap::numerics::integrate_to_infinity;
using hap::numerics::laplace_transform;
using hap::numerics::LuDecomposition;
using hap::numerics::Matrix;

TEST(Matrix, ConstructAndIndex) {
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(0, 1) = -2.0;
    EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, BraceInitRejectsRagged) {
    EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Product) {
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{5, 6}, {7, 8}};
    Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, IdentityIsNeutral) {
    Matrix a{{1, 2}, {3, 4}};
    Matrix i = Matrix::identity(2);
    Matrix p = a * i;
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c) EXPECT_DOUBLE_EQ(p(r, c), a(r, c));
}

TEST(Matrix, ApplyVector) {
    Matrix a{{1, 2}, {3, 4}};
    const std::vector<double> v{1.0, 1.0};
    const auto out = a.apply(v);
    EXPECT_DOUBLE_EQ(out[0], 3.0);
    EXPECT_DOUBLE_EQ(out[1], 7.0);
    const auto left = a.apply_left(v);
    EXPECT_DOUBLE_EQ(left[0], 4.0);
    EXPECT_DOUBLE_EQ(left[1], 6.0);
}

TEST(Matrix, TransposeRoundTrip) {
    Matrix a{{1, 2, 3}, {4, 5, 6}};
    Matrix t = a.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Lu, SolvesLinearSystem) {
    Matrix a{{4, 1}, {1, 3}};
    const std::vector<double> b{1.0, 2.0};
    const auto x = hap::numerics::solve(a, b);
    EXPECT_NEAR(4 * x[0] + x[1], 1.0, 1e-12);
    EXPECT_NEAR(x[0] + 3 * x[1], 2.0, 1e-12);
}

TEST(Lu, InverseTimesSelfIsIdentity) {
    Matrix a{{2, 1, 0}, {1, 3, 1}, {0, 1, 4}};
    Matrix inv = hap::numerics::inverse(a);
    Matrix p = a * inv;
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_NEAR(p(r, c), r == c ? 1.0 : 0.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
    Matrix a{{1, 2}, {2, 4}};
    EXPECT_THROW(LuDecomposition{a}, std::domain_error);
}

TEST(Lu, DeterminantWithPivoting) {
    Matrix a{{0, 1}, {1, 0}};  // forces a row swap; det = -1
    LuDecomposition lu(a);
    EXPECT_NEAR(lu.determinant(), -1.0, 1e-12);
}

// Deterministic fill in [-0.5, 0.5): no diagonal dominance, so partial
// pivoting swaps rows.
Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    Matrix m(rows, cols);
    std::uint64_t h = seed * 0x9e3779b97f4a7c15ULL + 1;
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            h = h * 6364136223846793005ULL + 1442695040888963407ULL;
            m(i, j) = static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5;
        }
    }
    return m;
}

// The per-column oracle: the one-vector solve, column by column. The
// multi-column solve must match it bit for bit.
Matrix solve_by_columns(const LuDecomposition& lu, const Matrix& b) {
    Matrix out(b.rows(), b.cols());
    std::vector<double> col(b.rows());
    for (std::size_t j = 0; j < b.cols(); ++j) {
        for (std::size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
        const std::vector<double> x = lu.solve(col);
        for (std::size_t i = 0; i < b.rows(); ++i) out(i, j) = x[i];
    }
    return out;
}

void expect_bit_identical(const Matrix& got, const Matrix& want) {
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.rows(); ++i)
        for (std::size_t j = 0; j < got.cols(); ++j)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got(i, j)),
                      std::bit_cast<std::uint64_t>(want(i, j)))
                << "entry (" << i << ", " << j << ") of " << got.rows() << "x" << got.cols();
}

TEST(Lu, MultiRhsSolveMatchesPerColumnBitForBit) {
    for (std::size_t n : {1u, 2u, 3u, 7u, 8u, 9u, 17u, 51u, 64u}) {
        const LuDecomposition lu(random_matrix(n, n, n));
        for (std::size_t m : {std::size_t{1}, std::size_t{5}, n}) {
            SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m));
            const Matrix b = random_matrix(n, m, 1000 + n * 7 + m);
            expect_bit_identical(lu.solve(b), solve_by_columns(lu, b));
        }
    }
}

TEST(Lu, InverseMatchesPerColumnBitForBit) {
    for (std::size_t n : {1u, 2u, 3u, 7u, 8u, 9u, 17u, 51u, 64u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const Matrix a = random_matrix(n, n, 77 + n);
        const LuDecomposition lu(a);
        const Matrix want = solve_by_columns(lu, Matrix::identity(n));
        expect_bit_identical(lu.inverse(), want);
        expect_bit_identical(hap::numerics::inverse(a), want);
    }
}

TEST(Lu, MultiRhsSolveWithRowSwapsMatchesPerColumn) {
    // Zero diagonal: every column needs a pivot swap.
    const Matrix a{{0, 2, 1, 3}, {4, 0, 2, 1}, {1, 3, 0, 2}, {2, 1, 5, 0}};
    const LuDecomposition lu(a);
    const Matrix b = random_matrix(4, 5, 3);
    const Matrix x = lu.solve(b);
    expect_bit_identical(x, solve_by_columns(lu, b));
    const Matrix ax = a * x;
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 5; ++j) EXPECT_NEAR(ax(i, j), b(i, j), 1e-12);
}

TEST(Lu, MultiRhsSolveRejectsSingularAndMismatchedShapes) {
    const Matrix singular{{1, 2, 3}, {2, 4, 6}, {1, 0, 1}};
    EXPECT_THROW(LuDecomposition{singular}, std::domain_error);
    EXPECT_THROW(hap::numerics::inverse(singular), std::domain_error);
    const LuDecomposition lu(random_matrix(3, 3, 5));
    EXPECT_THROW(lu.solve(Matrix(4, 2)), std::invalid_argument);
    EXPECT_EQ(lu.solve(Matrix(3, 0)).cols(), 0u);
}

TEST(Quadrature, PolynomialExact) {
    const double v = integrate([](double x) { return 3.0 * x * x; }, 0.0, 2.0);
    EXPECT_NEAR(v, 8.0, 1e-10);
}

TEST(Quadrature, OscillatoryFunction) {
    const double v = integrate([](double x) { return std::sin(x); }, 0.0, M_PI);
    EXPECT_NEAR(v, 2.0, 1e-9);
}

TEST(Quadrature, ExponentialTail) {
    const double v = integrate_to_infinity([](double t) { return std::exp(-t); });
    EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(Quadrature, GammaLikeIntegral) {
    // int_0^inf t^2 e^{-3t} dt = 2 / 27.
    const double v = integrate_to_infinity(
        [](double t) { return t * t * std::exp(-3.0 * t); });
    EXPECT_NEAR(v, 2.0 / 27.0, 1e-9);
}

TEST(GaussLaguerre, MatchesAdaptiveOnDensity) {
    GaussLaguerreRule rule(32);
    // int_0^inf e^{-2t} * 2 dt = 1 (exponential density).
    const double v = rule.integrate([](double t) { return 2.0 * std::exp(-2.0 * t); });
    EXPECT_NEAR(v, 1.0, 1e-6);
}

TEST(Roots, BisectFindsSqrt2) {
    const auto r = hap::numerics::bisect(
        [](double x) { return x * x - 2.0; }, 0.0, 2.0);
    ASSERT_TRUE(r.has_value());
    EXPECT_NEAR(*r, std::sqrt(2.0), 1e-9);
}

TEST(Roots, BisectRejectsBadBracket) {
    const auto r = hap::numerics::bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0);
    EXPECT_FALSE(r.has_value());
}

TEST(Roots, BrentFasterSameRoot) {
    const auto r = hap::numerics::brent(
        [](double x) { return std::cos(x) - x; }, 0.0, 1.0);
    ASSERT_TRUE(r.has_value());
    EXPECT_NEAR(std::cos(*r), *r, 1e-10);
}

TEST(Roots, DampedFixedPointConverges) {
    // x = cos(x) has the same Dottie-number fixed point.
    const auto r = hap::numerics::damped_fixed_point(
        [](double x) { return std::cos(x); }, 0.5);
    ASSERT_TRUE(r.has_value());
    EXPECT_NEAR(*r, 0.7390851332151607, 1e-8);
}

TEST(Laplace, ExponentialDensityTransform) {
    // a(t) = 2 e^{-2t} => A*(s) = 2 / (2 + s).
    const double v = laplace_transform(
        [](double t) { return 2.0 * std::exp(-2.0 * t); }, 3.0);
    EXPECT_NEAR(v, 0.4, 1e-8);
}

TEST(ExponentialMixtureTransformAndMoments, Consistent) {
    ExponentialMixture mix;
    mix.weights = {0.3, 0.7};
    mix.rates = {1.0, 5.0};
    EXPECT_NEAR(mix.transform(0.0), 1.0, 1e-12);
    EXPECT_NEAR(mix.mean(), 0.3 / 1.0 + 0.7 / 5.0, 1e-12);
    EXPECT_NEAR(mix.second_moment(), 2 * 0.3 + 2 * 0.7 / 25.0, 1e-12);
    // Transform via quadrature must agree with the closed form.
    const double s = 2.5;
    const double via_quad = laplace_transform([&](double t) { return mix.density(t); }, s);
    EXPECT_NEAR(via_quad, mix.transform(s), 1e-8);
}

TEST(ExponentialMixture, ZeroRateComponentIsDeadMass) {
    ExponentialMixture mix;
    mix.weights = {0.6, 0.4};
    mix.rates = {2.0, 0.0};
    EXPECT_NEAR(mix.transform(1.0), 0.6 * 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(mix.cdf(1e9), 0.6, 1e-9);
}

}  // namespace
