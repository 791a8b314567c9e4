// Dedicated tests for the Solution 0 solver (line relaxation + marginal
// projection on the (x, y, z) lattice).

// The lexicographic oracle below must round where the line sweep rounds:
// contraction off, every fusion written out (as in src/core/line_sweep.cpp).
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/hap.hpp"
#include "core/line_sweep.hpp"
#include "parallel/parallel_for.hpp"
#include "sim/rng.hpp"

namespace {

using namespace hap::core;

HapParams small_hap(double mu2 = 10.0) {
    return HapParams::homogeneous(0.4, 0.2, 0.5, 0.5, 1, 2.0, 1, mu2);
}

TEST(Solution0, RejectsUnsupportedShapes) {
    HapParams het = HapParams::homogeneous(0.4, 0.2, 0.5, 0.5, 2, 1.0, 1, 10.0);
    het.apps[1].arrival_rate = 0.9;
    het.validate();
    EXPECT_THROW(solve_solution0(het), std::invalid_argument);

    HapParams mixed_service = small_hap();
    mixed_service.apps[0].messages.push_back(MessageType{1.0, 25.0, ""});
    mixed_service.validate();
    EXPECT_THROW(solve_solution0(mixed_service), std::invalid_argument);
}

TEST(Solution0, PinnedUserTwoLevelMatchesQbd) {
    const HapParams p = HapParams::two_level(0.1, 0.01, 0.1, 4.0);
    Solution0Options o;
    o.max_messages = 300;
    o.tol = 1e-9;
    const auto s0 = solve_solution0(p, o);
    ASSERT_TRUE(s0.converged);
    const auto s3 = solve_solution3(p);
    ASSERT_TRUE(s3.qbd.stable);
    EXPECT_NEAR(s0.mean_delay, s3.qbd.mean_delay, 0.02 * s3.qbd.mean_delay);
    EXPECT_NEAR(s0.utilization, s3.qbd.utilization, 0.005);
    // Pinned users have no x shell: the converged box must not report its
    // whole mass as truncated.
    EXPECT_LT(s0.truncation_mass, 1e-3);

    Solution0Options d;
    d.tol = 1e-8;
    const auto s0d = solve_solution0(HapParams::two_level(0.01, 0.01, 2.0, 20.0), d);
    ASSERT_TRUE(s0d.converged);
    EXPECT_LT(s0d.truncation_mass, 1e-3);
}

TEST(Solution0, ModulatingMarginalsAreExact) {
    const HapParams p = small_hap();
    Solution0Options o;
    o.max_messages = 300;
    const auto s0 = solve_solution0(p, o);
    // The projection pins the modulating marginal, so the population means
    // match the M/M/inf closed forms to solver precision.
    EXPECT_NEAR(s0.mean_users, p.mean_users(), 1e-6);
    EXPECT_NEAR(s0.mean_apps, p.mean_apps(), 1e-4);
    EXPECT_NEAR(s0.utilization, p.offered_load(), 1e-4);
}

TEST(Solution0, AdmissionBoundsHonored) {
    HapParams bounded = small_hap();
    bounded.max_users = 3;
    bounded.max_apps = 5;
    Solution0Options o;
    o.max_messages = 300;
    const auto sb = solve_solution0(bounded, o);
    const auto sf = solve_solution0(small_hap(), o);
    ASSERT_TRUE(sb.converged);
    // Blocking cuts throughput and delay.
    EXPECT_LT(sb.mean_rate, sf.mean_rate);
    EXPECT_LT(sb.mean_delay, sf.mean_delay);
    // And matches the QBD on the identically-truncated chain.
    ChainBounds cb;
    cb.max_users = 3;
    cb.max_apps_total = 5;
    const auto s3 = solve_solution3(bounded, cb);
    EXPECT_NEAR(sb.mean_delay, s3.qbd.mean_delay, 0.02 * s3.qbd.mean_delay);
}

TEST(Solution0, DelayGrowsWithQueueBoundUnderHeavyTail) {
    // The heavy-tail signature on a loaded queue: widening the z bound keeps
    // adding mean queue (mountains), while sigma stays put.
    const HapParams p = small_hap(8.0);  // rho = 0.5
    Solution0Options o1, o2;
    o1.max_messages = 100;
    o2.max_messages = 500;
    const auto r1 = solve_solution0(p, o1);
    const auto r2 = solve_solution0(p, o2);
    EXPECT_GT(r2.mean_delay, r1.mean_delay * 1.01);
    EXPECT_NEAR(r1.sigma, r2.sigma, 0.01);
}

TEST(Solution0, SigmaConsistentWithUtilizationOrdering) {
    // sigma (rate-weighted P(busy at arrival)) exceeds the time-average
    // utilization for positively correlated arrivals (bursts find queues).
    const HapParams p = small_hap();
    Solution0Options o;
    o.max_messages = 400;
    const auto s0 = solve_solution0(p, o);
    EXPECT_GT(s0.sigma, s0.utilization);
}

TEST(Solution0, ReportsNonConvergenceHonestly) {
    const HapParams p = small_hap();
    Solution0Options o;
    o.max_messages = 400;
    o.max_sweeps = 3;  // far too few
    const auto res = solve_solution0(p, o);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.sweeps, 3u);
}

TEST(Solution0, WarmStartMatchesColdAcrossParameterStep) {
    // Continuation step: seed the solve at lambda' = 1.05 lambda from the
    // converged state at lambda. Same answer as the cold solve to well
    // within the sweep-equivalence bar (1e-6), in no more sweeps.
    const HapParams p = small_hap();
    Solution0Options o;
    o.max_messages = 120;
    o.tol = 1e-8;
    o.keep_state = true;
    const auto base = solve_solution0(p, o);
    ASSERT_TRUE(base.converged);
    EXPECT_FALSE(base.warm_started);
    ASSERT_FALSE(base.state.empty());

    HapParams q = small_hap();
    q.user_arrival_rate *= 1.05;
    q.validate();
    const auto cold = solve_solution0(q, o);
    ASSERT_TRUE(cold.converged);

    Solution0Options w = o;
    w.warm = &base.state;
    const auto warm = solve_solution0(q, w);
    ASSERT_TRUE(warm.converged);
    EXPECT_TRUE(warm.warm_started);
    EXPECT_LE(warm.sweeps, cold.sweeps);
    EXPECT_NEAR(warm.mean_delay, cold.mean_delay, 1e-6 * cold.mean_delay);
    EXPECT_NEAR(warm.utilization, cold.utilization, 1e-6 * cold.utilization);
}

TEST(Solution0, WarmStateRemapsAcrossBoxSizes) {
    // The exported state from a small z box seeds a solve on a larger box:
    // the vector is zero-padded onto the new geometry, not rejected.
    const HapParams p = small_hap();
    Solution0Options small_o;
    small_o.max_messages = 60;
    small_o.tol = 1e-8;
    small_o.keep_state = true;
    const auto coarse = solve_solution0(p, small_o);
    ASSERT_TRUE(coarse.converged);

    Solution0Options big_o;
    big_o.max_messages = 120;
    big_o.tol = 1e-8;
    const auto cold = solve_solution0(p, big_o);
    ASSERT_TRUE(cold.converged);

    Solution0Options w = big_o;
    w.warm = &coarse.state;
    const auto warm = solve_solution0(p, w);
    ASSERT_TRUE(warm.converged);
    EXPECT_TRUE(warm.warm_started);
    EXPECT_NEAR(warm.mean_delay, cold.mean_delay, 1e-6 * cold.mean_delay);
    EXPECT_NEAR(warm.utilization, cold.utilization, 1e-6 * cold.utilization);
}

TEST(Solution0, AdaptiveMatchesFixedBox) {
    // The adaptive engine grows the truncation box until the boundary-shell
    // mass is negligible; observables must match the worst-case fixed box
    // within the equivalence bar, on no more states.
    const HapParams p = small_hap();
    Solution0Options fixed_o;
    fixed_o.max_messages = 200;
    fixed_o.tol = 1e-8;
    const auto fixed = solve_solution0(p, fixed_o);
    ASSERT_TRUE(fixed.converged);

    Solution0Options ad_o = fixed_o;
    ad_o.adaptive = true;
    ad_o.trunc_tol = 1e-9;
    const auto ad = solve_solution0(p, ad_o);
    ASSERT_TRUE(ad.converged);
    EXPECT_LE(ad.states, fixed.states);
    EXPECT_NEAR(ad.mean_delay, fixed.mean_delay, 1e-6 * fixed.mean_delay);
    EXPECT_NEAR(ad.utilization, fixed.utilization, 1e-6 * fixed.utilization);
}

// ---- Line sweep kernel ---------------------------------------------------

using detail::Grid;
using detail::Rates;

// The line sweep in plain lexicographic order, one line at a time: the
// reference the anti-diagonal kernel must match bit for bit. Its fusions are
// the ones GCC -O3 -march=native made in the original single-line sweep.
void oracle_sweep(const Grid& g, const Rates& r, std::vector<double>& pi, bool forward) {
    const std::size_t xy_stride = g.ny * g.nz;
    std::vector<double> cp(g.nz);
    std::vector<double> rhs(g.nz);
    for (std::size_t xi = 0; xi < g.nx; ++xi) {
        const std::size_t x = g.x_lo + (forward ? xi : g.nx - 1 - xi);
        const double xd = static_cast<double>(x);
        for (std::size_t yi = 0; yi < g.ny; ++yi) {
            const std::size_t y = forward ? yi : g.ny - 1 - yi;
            const double yd = static_cast<double>(y);
            const double arr = yd * r.beta;
            double* cur = pi.data() + g.idx(x, y, 0);
            const double* xlo = x > g.x_lo ? cur - xy_stride : nullptr;
            const double* xhi = x < g.x_hi ? cur + xy_stride : nullptr;
            const double* ylo = y > 0 ? cur - g.nz : nullptr;
            const double* yhi = y < g.y_hi ? cur + g.nz : nullptr;

            double ob = yd * r.mu1;
            if (r.dynamic_users) {
                if (x < g.x_hi) ob = ob + r.lambda;
                ob = std::fma(xd, r.mu, ob);
            }
            const double w_ylo = xd * r.alpha;
            if (y < g.y_hi) ob = ob + w_ylo;
            const double w_xhi = (xd + 1.0) * r.mu;
            const double w_yhi = (yd + 1.0) * r.mu1;

            for (std::size_t z = 0; z < g.nz; ++z) {
                double s = 0.0;
                if (xlo) s = std::fma(r.lambda, xlo[z], s);
                if (xhi) s = std::fma(w_xhi, xhi[z], s);
                if (ylo) s = std::fma(w_ylo, ylo[z], s);
                if (yhi) s = std::fma(w_yhi, yhi[z], s);
                rhs[z] = s;
            }
            double b0 = ob + (g.z_hi > 0 ? arr : 0.0);
            if (b0 <= 0.0) b0 = 1.0;
            cp[0] = -r.mu2 / b0;
            rhs[0] = rhs[0] / b0;
            for (std::size_t z = 1; z < g.nz; ++z) {
                const double b = (ob + r.mu2) + (z < g.z_hi ? arr : 0.0);
                const double denom = std::fma(arr, cp[z - 1], b);
                cp[z] = (z < g.z_hi ? -r.mu2 : 0.0) / denom;
                rhs[z] = std::fma(arr, rhs[z - 1], rhs[z]) / denom;
            }
            cur[g.nz - 1] = rhs[g.nz - 1];
            for (std::size_t z = g.nz - 1; z-- > 0;)
                cur[z] = std::fma(-cp[z], cur[z + 1], rhs[z]);
        }
    }
}

// Index of the first element whose bits differ, or -1.
long first_mismatch(const std::vector<double>& a, const std::vector<double>& b) {
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return static_cast<long>(i);
    return -1;
}

// Runs four alternating sweeps through the oracle and both kernel paths
// from one random positive lattice, comparing every bit after each sweep.
void expect_sweeps_match(const Grid& g, const Rates& r, std::uint64_t seed) {
    hap::sim::RandomStream rng(seed);
    std::vector<double> start(g.size());
    for (double& v : start) v = rng.uniform(0.01, 1.0);
    std::vector<double> ref = start;
    std::vector<double> vec = start;
    std::vector<double> sca = start;
    detail::LineWorkspace ws_vec;
    detail::LineWorkspace ws_sca;
    for (int s = 0; s < 4; ++s) {
        const bool forward = s % 2 == 0;
        oracle_sweep(g, r, ref, forward);
        detail::line_sweep(g, r, vec.data(), forward, ws_vec);
        detail::line_sweep_scalar(g, r, sca.data(), forward, ws_sca);
        SCOPED_TRACE(::testing::Message() << "box " << g.nx << "x" << g.ny << "x" << g.nz
                                          << " sweep " << s);
        ASSERT_EQ(first_mismatch(ref, vec), -1) << "path " << detail::line_sweep_path();
        ASSERT_EQ(first_mismatch(ref, sca), -1) << "scalar path";
    }
    // The sweeps moved the lattice: the comparison is not vacuous.
    EXPECT_NE(first_mismatch(start, ref), -1);
}

Rates random_rates(std::uint64_t seed, bool dynamic_users) {
    hap::sim::RandomStream rng(seed);
    Rates r{};
    r.dynamic_users = dynamic_users;
    r.lambda = rng.uniform(0.05, 2.0);
    r.mu = rng.uniform(0.05, 1.0);
    r.alpha = rng.uniform(0.05, 2.0);
    r.mu1 = rng.uniform(0.05, 1.0);
    r.beta = rng.uniform(0.5, 5.0);
    r.mu2 = rng.uniform(5.0, 30.0);
    return r;
}

TEST(LineSweep, MatchesLexicographicOracleBitForBit) {
    struct Box {
        std::size_t x_lo, x_hi, y_hi, z_hi;
        bool dynamic_users;
    };
    const Box boxes[] = {
        {0, 20, 50, 300, true},  // 21x51x301: diagonals of 1..21 lines
        {0, 2, 2, 4, true},      // 3x3x5: one partial group per diagonal
        {3, 3, 6, 19, false},    // nx = 1: pinned users
        {0, 3, 4, 0, true},      // nz = 1 (z_hi = 0): no 4-row z block
        {0, 2, 8, 1, true},      // nz = 2
        {0, 11, 2, 16, true},    // ny < 8
        {0, 9, 12, 6, true},     // nz = 7: one 4-row block and a 3-row tail
        {0, 30, 40, 9, true},    // diagonals of up to 31 lines: four groups
    };
    std::uint64_t seed = 11;
    for (const Box& b : boxes) {
        const Grid g = detail::make_grid(b.x_lo, b.x_hi, b.y_hi, b.z_hi);
        expect_sweeps_match(g, random_rates(seed, b.dynamic_users), seed + 1000);
        if (HasFatalFailure()) return;
        seed += 1;
    }
}

TEST(LineSweep, ClampedIsolatedLineMatchesOracle) {
    // Pinned users at x = 0: line (0, 0) has no way out (ob = 0) and no
    // arrivals (arr = 0), so b0 = 0 hits the b0 <= 0 -> 1 clamp.
    const Grid g = detail::make_grid(0, 0, 6, 9);
    expect_sweeps_match(g, random_rates(5, false), 77);
    const Grid flat = detail::make_grid(0, 0, 5, 0);  // and with z_hi = 0
    expect_sweeps_match(flat, random_rates(6, false), 78);
}

// ---- Threaded line sweep --------------------------------------------------

// project_lines' contract written out: each line summed from 0.0 in
// ascending z, then scaled to its target (or all of it put at z = 0).
void oracle_project(const Grid& g, const std::vector<double>& marginal,
                    std::vector<double>& pi) {
    for (std::size_t line = 0; line < g.nx * g.ny; ++line) {
        double* cur = pi.data() + line * g.nz;
        double total = 0.0;
        for (std::size_t z = 0; z < g.nz; ++z) total += cur[z];
        if (total > 0.0) {
            const double f = marginal[line] / total;
            for (std::size_t z = 0; z < g.nz; ++z) cur[z] *= f;
        } else {
            for (std::size_t z = 0; z < g.nz; ++z) cur[z] = 0.0;
            cur[0] = marginal[line];
        }
    }
}

std::vector<double> random_lattice(std::size_t n, std::uint64_t seed, double lo, double hi) {
    hap::sim::RandomStream rng(seed);
    std::vector<double> v(n);
    for (double& x : v) x = rng.uniform(lo, hi);
    return v;
}

// Copies the cells two boxes share and zeroes the rest, as a box growth does.
std::vector<double> regrid(const std::vector<double>& src, const Grid& from, const Grid& to) {
    std::vector<double> dst(to.size(), 0.0);
    for (std::size_t x = to.x_lo; x <= std::min(from.x_hi, to.x_hi); ++x)
        for (std::size_t y = 0; y <= std::min(from.y_hi, to.y_hi); ++y)
            for (std::size_t z = 0; z <= std::min(from.z_hi, to.z_hi); ++z)
                dst[to.idx(x, y, z)] = src[from.idx(x, y, z)];
    return dst;
}

constexpr std::size_t kWorkerCounts[] = {1, 2, 3, 4, 7};

// Four alternating sweeps of the threaded kernel (both paths) against the
// oracle at every worker count, with the fused marginal projection when
// `project` is set; one workspace per path serves every count in turn.
void expect_threaded_sweeps_match(const Grid& g, const Rates& r, std::uint64_t seed,
                                  bool project) {
    const std::vector<double> start = random_lattice(g.size(), seed, 0.01, 1.0);
    const std::vector<double> marginal = random_lattice(g.nx * g.ny, seed + 1, 0.1, 2.0);
    const double* m = project ? marginal.data() : nullptr;
    detail::LineWorkspace ws_vec;
    detail::LineWorkspace ws_sca;
    for (const std::size_t workers : kWorkerCounts) {
        std::vector<double> ref = start;
        std::vector<double> vec = start;
        std::vector<double> sca = start;
        for (int s = 0; s < 4; ++s) {
            const bool forward = s % 2 == 0;
            oracle_sweep(g, r, ref, forward);
            if (project) oracle_project(g, marginal, ref);
            detail::line_sweep(g, r, vec.data(), forward, ws_vec, workers, m);
            detail::line_sweep_scalar(g, r, sca.data(), forward, ws_sca, workers, m);
            SCOPED_TRACE(::testing::Message()
                         << "box " << g.nx << "x" << g.ny << "x" << g.nz << " workers "
                         << workers << " sweep " << s << (project ? " projected" : ""));
            ASSERT_EQ(first_mismatch(ref, vec), -1) << "path " << detail::line_sweep_path();
            ASSERT_EQ(first_mismatch(ref, sca), -1) << "scalar path";
        }
        EXPECT_NE(first_mismatch(start, ref), -1);
    }
}

TEST(LineSweep, ThreadedMatchesOracleAtAnyWorkerCount) {
    struct Box {
        std::size_t x_lo, x_hi, y_hi, z_hi;
        bool dynamic_users;
    };
    const Box boxes[] = {
        {0, 20, 50, 128, true},  // the Fig. 12 box: nx = 21 splits 5/5/5/6 on 4
        {0, 2, 6, 9, true},      // nx = 3: fewer lines than 4 or 7 workers
        {3, 3, 6, 19, false},    // pinned users (x_lo == x_hi): one block
        {0, 6, 10, 5, true},     // nx = 7: one x line per worker at 7
        {0, 9, 3, 0, true},      // nz = 1, ny < blocks' lag
        {0, 30, 12, 7, true},    // blocks of 7-10 lines: groups span a block
    };
    std::uint64_t seed = 41;
    for (const Box& b : boxes) {
        const Grid g = detail::make_grid(b.x_lo, b.x_hi, b.y_hi, b.z_hi);
        const Rates r = random_rates(seed, b.dynamic_users);
        expect_threaded_sweeps_match(g, r, seed + 1000, false);
        if (HasFatalFailure()) return;
        expect_threaded_sweeps_match(g, r, seed + 2000, true);
        if (HasFatalFailure()) return;
        seed += 1;
    }
}

TEST(LineSweep, ThreadedSweepFollowsBoxGrowth) {
    // A box that grows in y and z between sweeps, as the adaptive engine's
    // does: the caller's and the workers' workspaces regrow and the
    // iterate stays on the oracle's bits.
    const Grid small = detail::make_grid(0, 12, 20, 30);
    const Grid grown = detail::make_grid(0, 12, 31, 70);
    const Rates r = random_rates(7, true);
    const std::vector<double> start = random_lattice(small.size(), 8, 0.01, 1.0);
    for (const std::size_t workers : kWorkerCounts) {
        std::vector<double> ref = start;
        std::vector<double> got = start;
        detail::LineWorkspace ws;
        for (int s = 0; s < 2; ++s) {
            oracle_sweep(small, r, ref, s == 0);
            detail::line_sweep(small, r, got.data(), s == 0, ws, workers);
        }
        ref = regrid(ref, small, grown);
        got = regrid(got, small, grown);
        for (int s = 0; s < 3; ++s) {
            oracle_sweep(grown, r, ref, s % 2 == 0);
            detail::line_sweep(grown, r, got.data(), s % 2 == 0, ws, workers);
            ASSERT_EQ(first_mismatch(ref, got), -1) << "workers " << workers << " sweep " << s;
        }
    }
}

void expect_same_solve(const Solution0Result& a, const Solution0Result& b) {
    EXPECT_EQ(std::memcmp(&a.mean_delay, &b.mean_delay, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.mean_messages, &b.mean_messages, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.utilization, &b.utilization, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.sigma, &b.sigma, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.truncation_mass, &b.truncation_mass, sizeof(double)), 0);
    EXPECT_EQ(a.sweeps, b.sweeps);
    EXPECT_EQ(a.box_growths, b.box_growths);
    EXPECT_EQ(a.states, b.states);
    EXPECT_EQ(first_mismatch(a.state.pi, b.state.pi), -1);
}

TEST(Solution0, ThreadedSolveMatchesSerialBitsNestedAndConcurrent) {
    // An adaptive solve with box growths: holding the runtime's lease keeps
    // its sweeps on this thread (the serial path), and the same solve run
    // on the runtime, inside a parallel_for job, and from two threads at
    // once must give the same bits.
    const HapParams p = small_hap();
    Solution0Options o;
    o.max_messages = 200;
    o.tol = 1e-8;
    o.adaptive = true;
    o.keep_state = true;
    Solution0Result serial;
    {
        const hap::parallel::Team lease(2);
        serial = solve_solution0(p, o);
    }
    ASSERT_TRUE(serial.converged);
    ASSERT_GT(serial.box_growths, 0u);

    expect_same_solve(solve_solution0(p, o), serial);

    std::vector<Solution0Result> nested(3);
    hap::parallel::parallel_for(3, nested.size(),
                                [&](std::size_t i) { nested[i] = solve_solution0(p, o); });
    for (const Solution0Result& res : nested) expect_same_solve(res, serial);

    Solution0Result a;
    Solution0Result b;
    std::thread ta([&] { a = solve_solution0(p, o); });  // haplint: allow(naked-thread) -- two independent callers
    std::thread tb([&] { b = solve_solution0(p, o); });  // haplint: allow(naked-thread) -- two independent callers
    ta.join();  // haplint: allow(naked-thread) -- two independent callers
    tb.join();  // haplint: allow(naked-thread) -- two independent callers
    expect_same_solve(a, serial);
    expect_same_solve(b, serial);
}

}  // namespace
