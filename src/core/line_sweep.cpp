#include "core/line_sweep.hpp"

// The sweep must round exactly where the plain lexicographic line sweep it
// replaced rounded, so that golden iterates keep their bits. Under the
// default -ffp-contract=fast a multiply feeding an add may fuse into an FMA
// on one path and not the other, so contraction is off for this file
// whatever flags the build passes; each fusion the sweep needs is spelled
// out with std::fma or an fmadd intrinsic (the FMA map in DESIGN.md 4b).
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include <algorithm>
#include <cmath>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define HAP_LINE_SWEEP_AVX2 1
#endif

namespace hap::core::detail {

Grid make_grid(std::size_t x_lo, std::size_t x_hi, std::size_t y_hi, std::size_t z_hi) {
    Grid g{};
    g.x_lo = x_lo;
    g.x_hi = x_hi;
    g.y_hi = y_hi;
    g.z_hi = z_hi;
    g.nx = x_hi - x_lo + 1;
    g.ny = y_hi + 1;
    g.nz = z_hi + 1;
    return g;
}

namespace {

constexpr std::size_t kLanes = 8;

// Up to kLanes lines of one anti-diagonal, relaxed together. Lanes at and
// past `n` are idle: they read the zero line and are never written back.
struct Group {
    std::size_t n = 0;
    double* cur[kLanes];
    const double* nb[4][kLanes];  // neighbor lines: x-1, x+1, y-1, y+1
    double w[4][kLanes];          // their inflow weights
    double ob[kLanes];            // out-rate shared by every z of the line
    double arr[kLanes];           // message arrival rate y * beta
};

void set_lane(Group& grp, std::size_t l, const Grid& g, const Rates& r, double* pi,
              const double* zero, std::size_t x, std::size_t y) {
    const double xd = static_cast<double>(x);
    const double yd = static_cast<double>(y);
    const std::size_t xy_stride = g.ny * g.nz;
    double* cur = pi + g.idx(x, y, 0);
    grp.cur[l] = cur;
    grp.nb[0][l] = x > g.x_lo ? cur - xy_stride : zero;
    grp.nb[1][l] = x < g.x_hi ? cur + xy_stride : zero;
    grp.nb[2][l] = y > 0 ? cur - g.nz : zero;
    grp.nb[3][l] = y < g.y_hi ? cur + g.nz : zero;
    grp.w[0][l] = r.lambda;
    grp.w[1][l] = (xd + 1.0) * r.mu;
    grp.w[2][l] = xd * r.alpha;
    grp.w[3][l] = (yd + 1.0) * r.mu1;

    double ob = yd * r.mu1;
    if (r.dynamic_users) {
        if (x < g.x_hi) ob = ob + r.lambda;
        ob = std::fma(xd, r.mu, ob);
    }
    // Rounded before the add: the product is the y-1 weight as well.
    if (y < g.y_hi) ob = ob + grp.w[2][l];
    grp.ob[l] = ob;
    grp.arr[l] = yd * r.beta;
}

void set_idle(Group& grp, std::size_t l, const double* zero) {
    grp.cur[l] = nullptr;
    for (std::size_t k = 0; k < 4; ++k) {
        grp.nb[k][l] = zero;
        grp.w[k][l] = 0.0;
    }
    grp.ob[l] = 1.0;
    grp.arr[l] = 0.0;
}

// Lateral inflow S(z) = sum over the four neighbor lines of w * p, fused in
// the order x-1, x+1, y-1, y+1 from +0. A missing neighbor reads the zero
// line, and fma(w, 0, s) == s for every finite w, so it adds nothing.
double inflow(const Group& grp, std::size_t l, std::size_t z) {
    double s = 0.0;
    for (std::size_t k = 0; k < 4; ++k) s = std::fma(grp.w[k][l], grp.nb[k][l][z], s);
    return s;
}

// The tridiagonal system of one line along z:
//   -arr * p[z-1] + out(z) * p[z] - mu2 * p[z+1] = S(z),
// out(z) = ob + arr [z < z_hi] + mu2 [z > 0]. Diagonally dominant
// (out >= arr + mu2 + lateral), so Thomas is stable without pivoting.
// rhs holds S in [z][kLanes] layout on entry and the solution on exit.
void relax_scalar(const Group& grp, double* cp, double* rhs, std::size_t nz,
                  std::size_t z_hi, double mu2) {
    for (std::size_t z = 0; z < nz; ++z)
        for (std::size_t l = 0; l < kLanes; ++l) rhs[z * kLanes + l] = inflow(grp, l, z);

    for (std::size_t l = 0; l < kLanes; ++l) {
        double b0 = grp.ob[l] + (z_hi > 0 ? grp.arr[l] : 0.0);
        if (b0 <= 0.0) b0 = 1.0;  // isolated state; keeps the division sane
        cp[l] = -mu2 / b0;
        rhs[l] = rhs[l] / b0;
    }
    for (std::size_t z = 1; z < nz; ++z) {
        const bool inner = z < z_hi;
        const double c = inner ? -mu2 : 0.0;
        for (std::size_t l = 0; l < kLanes; ++l) {
            const std::size_t i = z * kLanes + l;
            const double b = (grp.ob[l] + mu2) + (inner ? grp.arr[l] : 0.0);
            const double denom = std::fma(grp.arr[l], cp[i - kLanes], b);
            cp[i] = c / denom;
            rhs[i] = std::fma(grp.arr[l], rhs[i - kLanes], rhs[i]) / denom;
        }
    }
    for (std::size_t i = (nz - 1) * kLanes; i-- > 0;)
        rhs[i] = std::fma(-cp[i], rhs[i + kLanes], rhs[i]);

    for (std::size_t l = 0; l < grp.n; ++l)
        for (std::size_t z = 0; z < nz; ++z) grp.cur[l][z] = rhs[z * kLanes + l];
}

#ifdef HAP_LINE_SWEEP_AVX2

// In-register 4x4 transpose: row k of the output holds element k of every
// input.
void transpose4(__m256d v[4]) {
    const __m256d t0 = _mm256_unpacklo_pd(v[0], v[1]);
    const __m256d t1 = _mm256_unpackhi_pd(v[0], v[1]);
    const __m256d t2 = _mm256_unpacklo_pd(v[2], v[3]);
    const __m256d t3 = _mm256_unpackhi_pd(v[2], v[3]);
    v[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    v[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    v[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    v[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

// relax_scalar's exact arithmetic, four lanes to a register, two registers
// (lanes 0-3 and 4-7) per z step. Each block of four z rows is built
// (inflow, transposed into [z][kLanes]) right before its elimination steps,
// and each block of solved rows is transposed back out right after its
// back-substitution steps, so that independent loads and shuffles fill the
// latency of the division chain.
void relax_avx2(const Group& grp, double* cp, double* rhs, std::size_t nz,
                std::size_t z_hi, double mu2) {
    const __m256d zero = _mm256_setzero_pd();
    const __m256d neg_mu2 = _mm256_set1_pd(-mu2);
    const __m256d arr[2] = {_mm256_loadu_pd(grp.arr), _mm256_loadu_pd(grp.arr + 4)};
    __m256d b0[2];
    __m256d b_inner[2];
    __m256d b_last[2];
    for (std::size_t h = 0; h < 2; ++h) {
        const __m256d ob = _mm256_loadu_pd(grp.ob + 4 * h);
        const __m256d ob_mu2 = _mm256_add_pd(ob, _mm256_set1_pd(mu2));
        b_inner[h] = _mm256_add_pd(ob_mu2, arr[h]);
        b_last[h] = _mm256_add_pd(ob_mu2, zero);
        const __m256d b = _mm256_add_pd(ob, z_hi > 0 ? arr[h] : zero);
        const __m256d clamp = _mm256_cmp_pd(b, zero, _CMP_LE_OQ);
        b0[h] = _mm256_blendv_pd(b, _mm256_set1_pd(1.0), clamp);
    }

    // Forward elimination; the previous row's cp and rhs stay in registers.
    __m256d cpv[2] = {zero, zero};
    __m256d rv[2] = {zero, zero};
    const auto eliminate = [&](std::size_t z) {
        for (std::size_t h = 0; h < 2; ++h) {
            double* rz = rhs + z * kLanes + 4 * h;
            if (z == 0) {
                cpv[h] = _mm256_div_pd(neg_mu2, b0[h]);
                rv[h] = _mm256_div_pd(_mm256_loadu_pd(rz), b0[h]);
            } else {
                const bool inner = z < z_hi;
                const __m256d denom =
                    _mm256_fmadd_pd(arr[h], cpv[h], inner ? b_inner[h] : b_last[h]);
                cpv[h] = _mm256_div_pd(inner ? neg_mu2 : zero, denom);
                const __m256d num = _mm256_fmadd_pd(arr[h], rv[h], _mm256_loadu_pd(rz));
                rv[h] = _mm256_div_pd(num, denom);
            }
            _mm256_storeu_pd(cp + z * kLanes + 4 * h, cpv[h]);
            _mm256_storeu_pd(rz, rv[h]);
        }
    };
    std::size_t z = 0;
    for (; z + 4 <= nz; z += 4) {
        for (std::size_t h = 0; h < kLanes; h += 4) {
            __m256d v[4];
            for (std::size_t k = 0; k < 4; ++k) {
                __m256d s = zero;
                for (std::size_t j = 0; j < 4; ++j) {
                    s = _mm256_fmadd_pd(_mm256_set1_pd(grp.w[j][h + k]),
                                        _mm256_loadu_pd(grp.nb[j][h + k] + z), s);
                }
                v[k] = s;
            }
            transpose4(v);
            for (std::size_t k = 0; k < 4; ++k)
                _mm256_storeu_pd(rhs + (z + k) * kLanes + h, v[k]);
        }
        for (std::size_t k = 0; k < 4; ++k) eliminate(z + k);
    }
    for (; z < nz; ++z) {
        for (std::size_t l = 0; l < kLanes; ++l) rhs[z * kLanes + l] = inflow(grp, l, z);
        eliminate(z);
    }

    // Back substitution, p[z] = rhs[z] - cp[z] * p[z+1] in one rounding,
    // from the top row down; rows from `z` up are final.
    z = nz - 1;
    const auto substitute_down_to = [&](std::size_t lo) {
        while (z > lo) {
            --z;
            for (std::size_t h = 0; h < 2; ++h) {
                double* rz = rhs + z * kLanes + 4 * h;
                rv[h] = _mm256_fnmadd_pd(_mm256_loadu_pd(cp + z * kLanes + 4 * h), rv[h],
                                         _mm256_loadu_pd(rz));
                _mm256_storeu_pd(rz, rv[h]);
            }
        }
    };
    const std::size_t top = nz - nz % 4;
    substitute_down_to(top);
    for (std::size_t zt = top; zt < nz; ++zt)
        for (std::size_t l = 0; l < grp.n; ++l) grp.cur[l][zt] = rhs[zt * kLanes + l];
    for (std::size_t zb = top; zb > 0; zb -= 4) {
        substitute_down_to(zb - 4);
        for (std::size_t h = 0; h < grp.n; h += 4) {
            __m256d v[4];
            for (std::size_t k = 0; k < 4; ++k)
                v[k] = _mm256_loadu_pd(rhs + (zb - 4 + k) * kLanes + h);
            transpose4(v);
            for (std::size_t k = 0; k < 4 && h + k < grp.n; ++k)
                _mm256_storeu_pd(grp.cur[h + k] + zb - 4, v[k]);
        }
    }
}

#endif  // HAP_LINE_SWEEP_AVX2

void size_workspace(LineWorkspace& ws, std::size_t nz) {
    if (ws.zero.size() < nz) {
        ws.cp.assign(kLanes * nz, 0.0);
        ws.rhs.assign(kLanes * nz, 0.0);
        ws.zero.assign(nz, 0.0);
    }
}

// The scratch of a runtime worker thread, kept across sweeps and solves.
thread_local LineWorkspace t_worker_ws;

// Walk the anti-diagonals d = xi + yi of the traversal order over the lines
// of traversal columns [t0, t1). Lines on one diagonal never neighbor each
// other, and each reads the diagonal before it as already relaxed and the
// one after it as not yet relaxed — the values the lexicographic order
// gives it — so relaxing them together changes no bit of the Gauss-Seidel
// iterate. In a threaded sweep, column t0 - 1 belongs to the `upstream`
// worker: column t0 relaxes diagonal d only once upstream has finished
// diagonal d - 1, which also means upstream has read column t0's old
// values; `done` publishes this block's progress the same way.
template <class Relax>
void sweep_columns(const Grid& g, const Rates& r, double* pi, bool forward,
                   LineWorkspace& ws, Relax relax, std::size_t t0, std::size_t t1,
                   const parallel::Signal* upstream, parallel::Signal* done) {
    size_workspace(ws, g.nz);
    const double* zero = ws.zero.data();
    Group grp;
    for (std::size_t d = t0; d < t1 + g.ny - 1; ++d) {
        const std::size_t lo = std::max(t0, d >= g.ny ? d - (g.ny - 1) : 0);
        const std::size_t hi = std::min(t1, d + 1);
        if (upstream != nullptr && lo == t0)
            upstream->wait_at_least(static_cast<std::uint32_t>(d));
        for (std::size_t xi0 = lo; xi0 < hi; xi0 += kLanes) {
            grp.n = std::min(kLanes, hi - xi0);
            for (std::size_t l = 0; l < kLanes; ++l) {
                if (l >= grp.n) {
                    set_idle(grp, l, zero);
                    continue;
                }
                const std::size_t xi = xi0 + l;
                const std::size_t yi = d - xi;
                const std::size_t x = g.x_lo + (forward ? xi : g.nx - 1 - xi);
                const std::size_t y = forward ? yi : g.ny - 1 - yi;
                set_lane(grp, l, g, r, pi, zero, x, y);
            }
            relax(grp, ws.cp.data(), ws.rhs.data(), g.nz, g.z_hi, r.mu2);
        }
        if (done != nullptr) done->set(static_cast<std::uint32_t>(d + 1));
    }
}

// Worker w of `team` owns the x lines [w * nx / team, (w + 1) * nx / team)
// in both directions, so they stay in its cache from sweep to sweep. Its
// upstream is the block of lower x in a forward sweep, of higher x in a
// backward one. The marginal projection waits for every block to finish
// its sweep: until then a neighbor may still read this block's lines as
// relaxed and unscaled.
template <class Relax>
void sweep(const Grid& g, const Rates& r, double* pi, bool forward, LineWorkspace& ws,
           std::size_t workers, const double* marginal, Relax relax) {
    const std::size_t lines = g.nx * g.ny;
    parallel::Team team(std::max<std::size_t>(1, std::min(workers, g.nx)));
    const std::size_t n = team.size();
    if (n == 1) {
        sweep_columns(g, r, pi, forward, ws, relax, 0, g.nx, nullptr, nullptr);
        if (marginal != nullptr) project_lines(g, marginal, pi, 0, lines);
        return;
    }
    if (ws.progress.size() < n) ws.progress = std::vector<parallel::Signal>(n);
    parallel::Signal* progress = ws.progress.data();
    for (std::size_t w = 0; w < n; ++w) progress[w].set(0);
    const auto all_done = static_cast<std::uint32_t>(g.nx + g.ny - 1);
    auto body = [&](std::size_t w) {
        const std::size_t a = w * g.nx / n;
        const std::size_t b = (w + 1) * g.nx / n;
        const bool first = forward ? w == 0 : w + 1 == n;
        const parallel::Signal* upstream =
            first ? nullptr : &progress[forward ? w - 1 : w + 1];
        const std::size_t t0 = forward ? a : g.nx - b;
        const std::size_t t1 = forward ? b : g.nx - a;
        sweep_columns(g, r, pi, forward, w == 0 ? ws : t_worker_ws, relax, t0, t1,
                      upstream, &progress[w]);
        progress[w].set(all_done);
        if (marginal == nullptr) return;
        for (std::size_t v = 0; v < n; ++v) progress[v].wait_at_least(all_done);
        project_lines(g, marginal, pi, a * g.ny, b * g.ny);
    };
    team.run(body);
}

}  // namespace

void line_totals(const Grid& g, const double* pi, std::size_t lo, std::size_t hi,
                 double* out) {
    // Eight lines side by side, so that their independent add chains
    // overlap instead of each waiting on its own previous add.
    constexpr std::size_t kLines = 8;
    const std::size_t nz = g.nz;
    std::size_t line = lo;
    for (; line + kLines <= hi; line += kLines) {
        const double* cur = pi + line * nz;
        double acc[kLines] = {};
        for (std::size_t z = 0; z < nz; ++z)
            for (std::size_t l = 0; l < kLines; ++l) acc[l] += cur[l * nz + z];
        std::copy(acc, acc + kLines, out + (line - lo));
    }
    for (; line < hi; ++line) {
        const double* cur = pi + line * nz;
        double total = 0.0;
        for (std::size_t z = 0; z < nz; ++z) total += cur[z];
        out[line - lo] = total;
    }
}

void project_lines(const Grid& g, const double* marginal, double* pi, std::size_t lo,
                   std::size_t hi) {
    constexpr std::size_t kLines = 8;
    double totals[kLines] = {};
    for (std::size_t line0 = lo; line0 < hi; line0 += kLines) {
        const std::size_t n = std::min(kLines, hi - line0);
        line_totals(g, pi, line0, line0 + n, totals);
        for (std::size_t l = 0; l < n; ++l) {
            double* cur = pi + (line0 + l) * g.nz;
            const double target = marginal[line0 + l];
            if (totals[l] > 0.0) {
                const double f = target / totals[l];
                for (std::size_t z = 0; z < g.nz; ++z) cur[z] *= f;
            } else {
                for (std::size_t z = 0; z < g.nz; ++z) cur[z] = 0.0;
                cur[0] = target;
            }
        }
    }
}

void line_sweep_scalar(const Grid& g, const Rates& r, double* pi, bool forward,
                       LineWorkspace& ws, std::size_t workers, const double* marginal) {
    sweep(g, r, pi, forward, ws, workers, marginal, relax_scalar);
}

void line_sweep(const Grid& g, const Rates& r, double* pi, bool forward,
                LineWorkspace& ws, std::size_t workers, const double* marginal) {
#ifdef HAP_LINE_SWEEP_AVX2
    sweep(g, r, pi, forward, ws, workers, marginal, relax_avx2);
#else
    sweep(g, r, pi, forward, ws, workers, marginal, relax_scalar);
#endif
}

const char* line_sweep_path() noexcept {
#ifdef HAP_LINE_SWEEP_AVX2
    return "avx2";
#else
    return "scalar";
#endif
}

}  // namespace hap::core::detail
