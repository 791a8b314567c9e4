// The line-relaxation sweep of Solution 0: one Gauss-Seidel pass over the
// (x, y) lines of the (x, y, z) lattice, each line solved exactly along z
// (Thomas algorithm on the tridiagonal queue block).
//
// The z direction is the stiff one — message rates are orders of magnitude
// above the modulating rates — so solving each z-line exactly collapses what
// would be thousands of point-GS sweeps into the slow (x, y) diffusion
// alone. A single Thomas solve is latency bound (every z step waits on a
// division from the step before), so the kernel relaxes up to eight lines at
// once: the lines of one anti-diagonal of the traversal order, which are
// never neighbors of each other. Every line still reads exactly the
// neighbor values it reads in the plain lexicographic order, and its
// arithmetic is pinned operation by operation, so the iterate is the same
// to the last bit on every path. DESIGN.md section 4b has the argument and
// the FMA map.
#pragma once

#include <cstddef>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace hap::core::detail {

// Truncation box of the lattice. Line (x, y) holds its nz states z = 0..z_hi
// contiguously at ((x - x_lo) * ny + y) * nz.
struct Grid {
    std::size_t x_lo, x_hi, y_hi, z_hi;
    std::size_t nx, ny, nz;

    std::size_t size() const noexcept { return nx * ny * nz; }
    std::size_t idx(std::size_t x, std::size_t y, std::size_t z) const noexcept {
        return ((x - x_lo) * ny + y) * nz + z;
    }
};

Grid make_grid(std::size_t x_lo, std::size_t x_hi, std::size_t y_hi, std::size_t z_hi);

// Transition rates of the homogeneous HAP lattice.
struct Rates {
    bool dynamic_users;
    double lambda;   // user arrival
    double mu;       // user departure (per user)
    double alpha;    // app arrival per user (l * lambda')
    double mu1;      // app departure (per instance)
    double beta;     // message rate per app instance (m * lambda'')
    double mu2;      // message service rate
};

// Scratch of one solve: 17 * nz doubles, sized on first use and regrown
// only when the box's z range grows, and the pipeline progress of each
// worker of a threaded sweep. Workers other than the caller keep their own
// scratch, allocated once per worker thread.
struct LineWorkspace {
    std::vector<double> cp;    // [z][8] Thomas forward-elimination coefficients
    std::vector<double> rhs;   // [z][8] lateral inflow, then the solved lines
    std::vector<double> zero;  // nz zeros: the line behind a missing neighbor
    std::vector<parallel::Signal> progress;  // diagonals done, per worker
};

// One sweep over every line of `pi` (g.size() doubles), updated in place.
// `forward` walks (x - x_lo, y) upward, otherwise both coordinates run
// downward. Takes the AVX2 path when the build has one.
//
// The sweep runs on up to `workers` workers of the parallel runtime, each
// owning one fixed contiguous block of x lines in both directions; it runs
// on the caller alone when the runtime is leased elsewhere. With
// `marginal`, every line is then rescaled as by project_lines(). The
// result is the same to the last bit for any worker count (DESIGN.md
// section 4b).
void line_sweep(const Grid& g, const Rates& r, double* pi, bool forward,
                LineWorkspace& ws, std::size_t workers = 1,
                const double* marginal = nullptr);

// The same sweep through the portable lane loop, whatever the build.
void line_sweep_scalar(const Grid& g, const Rates& r, double* pi, bool forward,
                       LineWorkspace& ws, std::size_t workers = 1,
                       const double* marginal = nullptr);

// Mass of lines [lo, hi) ((x - x_lo) * ny + y indexing) into out[0, hi - lo),
// each summed from 0.0 in ascending z, as a one-line loop would sum it.
void line_totals(const Grid& g, const double* pi, std::size_t lo, std::size_t hi,
                 double* out);

// Scales each line of [lo, hi) to the total mass marginal[line]; a line
// with no mass gets it all at z = 0.
void project_lines(const Grid& g, const double* marginal, double* pi, std::size_t lo,
                   std::size_t hi);

// The path line_sweep() takes: "avx2" or "scalar".
const char* line_sweep_path() noexcept;

}  // namespace hap::core::detail
