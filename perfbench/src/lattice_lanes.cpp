// Lattice lanes: the CSR colored Gauss-Seidel solve of the lumped modulating
// chain on the Fig. 14 congestion lattice (paper baseline, mu'' = 20), to
// tol 1e-8 on nproc threads. It is the only user of the markov CSR sweep and
// of fine-grained parallel::parallel_for (one fork-join per color per
// sweep), so it is where the thread runtime shows.
//
// These lanes run in analytic_fig12's traced run, not as a workload of their
// own: the nproc-thread solve forks and joins a thread team twice per sweep,
// and under host CPU steal on a shared 4-vCPU Xeon virtual machine the same
// solve took 1.9 s in one run and 8-11 s in others, far too unsteady to
// gate. The box is 50 x 500 = 25k states so both solves fit a traced run
// even then.
//
// Output checks: both solves converge, and the colored result — pi and the
// sweep count — is bit-identical at 1 and nproc threads.
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/hap_chain.hpp"
#include "core/hap_params.hpp"
#include "markov/ctmc.hpp"
#include "markov/sparse.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using hap::core::ChainBounds;
using hap::core::LumpedChain;
using hap::markov::ColoringMode;
using hap::markov::SolveOptions;
using hap::markov::SolveResult;

constexpr double kService = 20.0;
constexpr std::size_t kMaxUsers = 49;
constexpr std::size_t kMaxApps = 499;
constexpr double kTol = 1e-8;
constexpr std::size_t kProbeSweeps = 300;

ChainBounds bounds() {
    ChainBounds b;
    b.max_users = kMaxUsers;
    b.max_apps_total = kMaxApps;
    return b;
}

SolveOptions solve_options(std::size_t threads) {
    SolveOptions o;
    o.tol = kTol;
    o.threads = threads;
    o.coloring = ColoringMode::kColored;
    return o;
}

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

// Seconds per colored sweep over kProbeSweeps sweeps from the uniform start,
// checking the residual on every tenth sweep as the solver does.
double sweep_seconds(const hap::markov::Ctmc& c, std::size_t threads) {
    std::vector<double> pi(c.num_states(), 1.0 / static_cast<double>(c.num_states()));
    const Span span("markov.gs_sweep_colored");
    const std::int64_t t0 = now_ns();
    for (std::size_t s = 0; s < kProbeSweeps; ++s)
        hap::markov::gs_sweep_colored(c.in_matrix(), c.exit_rates().data(), c.coloring(),
                                      threads, pi.data(), s % 10 == 9);
    return seconds_since(t0) / static_cast<double>(kProbeSweeps);
}

}  // namespace

void measure_lattice_layers(const Config& cfg, Report& rep) {
    const Span root("bench.lattice");
    const hap::core::HapParams params = hap::core::HapParams::paper_baseline(kService);
    std::optional<LumpedChain> chain;
    {
        const Span span("core.LumpedChain");
        chain.emplace(params, bounds());
    }
    const std::size_t n = chain->num_states();

    SolveResult wide;
    SolveResult narrow;
    double wide_s = 0.0;
    {
        const Span span("markov.LumpedChain.solve");
        const std::int64_t t0 = now_ns();
        wide = chain->solve(solve_options(cfg.threads));
        wide_s = seconds_since(t0);
    }
    {
        const Span span("markov.LumpedChain.solve");
        narrow = chain->solve(solve_options(1));
    }
    const bool same_bits =
        narrow.pi.size() == wide.pi.size() &&
        std::memcmp(narrow.pi.data(), wide.pi.data(), n * sizeof(double)) == 0;
    rep.check("lattice.pi_identical_1_vs_N", same_bits && narrow.iterations == wide.iterations,
              "pi at 1 and " + std::to_string(cfg.threads) + " threads");
    rep.check("lattice.converged", wide.converged && narrow.converged,
              std::to_string(wide.iterations) + " sweeps");
    rep.ledger("lattice.states", n);
    rep.ledger("lattice.gs_sweeps_tN", wide.iterations);
    rep.ledger("lattice.gs_sweeps_t1", narrow.iterations);
    rep.ledger("lattice.pi_digest", digest_doubles(wide.pi));

    // Build stages on the markov layer's own entry points: CSR assembly of
    // the chain's transitions (plus the transpose the sweeps stream), and
    // the red-black coloring from the lattice parity.
    const hap::markov::Csr& out = chain->ctmc().out_matrix();
    std::vector<double> csr_s;
    std::vector<double> color_s;
    for (int i = 0; i < 3; ++i) {
        hap::markov::CsrBuilder builder;
        hap::markov::Csr rebuilt;
        hap::markov::Csr transposed;
        std::int64_t t0 = now_ns();
        {
            const Span span("markov.CsrBuilder.build");
            builder.begin(out.rows, out.cols);
            for (std::size_t r = 0; r < out.rows; ++r) {
                const auto row = out.row(r);
                for (std::size_t k = 0; k < row.count; ++k) builder.add(r, row.idx[k], row.val[k]);
            }
            builder.build(rebuilt);
            builder.transpose(rebuilt, transposed);
        }
        csr_s.push_back(seconds_since(t0));
        std::vector<std::uint32_t> parity(n);
        for (std::size_t s = 0; s < n; ++s)
            parity[s] = static_cast<std::uint32_t>((chain->users_of(s) + chain->apps_of(s)) % 2);
        t0 = now_ns();
        {
            const Span span("markov.color_from_hint");
            const hap::markov::Coloring c = hap::markov::color_from_hint(rebuilt, std::move(parity));
            rep.check("lattice.coloring_rebuilt", c.num_colors == chain->ctmc().coloring().num_colors,
                      "rebuilt coloring has the chain's color count");
        }
        color_s.push_back(seconds_since(t0));
    }

    const double t1_sweep = sweep_seconds(chain->ctmc(), 1);
    const double tn_sweep = sweep_seconds(chain->ctmc(), cfg.threads);

    const double nd = static_cast<double>(n);
    const double nnz = static_cast<double>(chain->ctmc().in_matrix().nnz());
    rep.layer("markov.csr_build_s", median(csr_s), csr_s.size());
    rep.layer("markov.coloring_s", median(color_s), color_s.size());
    rep.layer("markov.gs_sweeps", static_cast<double>(wide.iterations));
    rep.layer("markov.sweep_ns_per_state.t1", t1_sweep * 1e9 / nd, kProbeSweeps);
    rep.layer("markov.sweep_ns_per_state.tN", tn_sweep * 1e9 / nd, kProbeSweeps);
    rep.layer("markov.scaling_eff", t1_sweep / (static_cast<double>(cfg.threads) * tn_sweep));
    rep.layer("markov.check_overhead_frac",
              (wide_s - static_cast<double>(wide.iterations) * tn_sweep) / wide_s);
    // Computed, not measured: in-matrix indices and values, row offsets,
    // exit rates, the color order, and one read plus one write of pi.
    rep.layer("markov.bytes_per_sweep",
              12.0 * nnz + 8.0 * (nd + 1.0) + 8.0 * nd + 4.0 * nd + 16.0 * nd);
    rep.note("markov.bytes_per_sweep", "computed from array sizes, not measured");
    rep.note("lattice.solve_s", std::to_string(wide_s) + " s at " + std::to_string(cfg.threads) +
                                    " threads, " + std::to_string(n) + " states");
}

}  // namespace perfbench
