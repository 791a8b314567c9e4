// Continuation-engine A/B bench: solves a Fig. 12-style analytic load sweep
// twice — once cold (every point on the worst-case box from a uniform start,
// the pre-continuation behaviour) and once with the continuation engine
// (warm starts + secant prediction + adaptive truncation) — and reports the
// solver-iteration reduction from the hap.obs telemetry, alongside the
// point-by-point agreement of the observables (the engine must change cost,
// not answers).
//
// The grid is the engine's home turf: mu'' in {17}, lambda scale stepped
// 0.4 -> 1.3, i.e. the load axis of the paper's Figure 12. HAP_BENCH_SCALE
// densifies the grid (more points = smaller steps = better warm starts);
// HAP_BENCH_WARM=0 runs the second leg cold too, which measures the harness
// noise floor (ratio ~1). The JSON document carries per-point iteration
// counts so tools/bench_compare.py can flag regressions against the
// checked-in BENCH_solver.json baseline.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/hap.hpp"
#include "core/line_sweep.hpp"
#include "obs/metrics.hpp"

namespace {

std::uint64_t telemetry_iterations() {
    std::uint64_t total = 0;
    for (const auto& t : hap::obs::registry().snapshot().solvers) total += t.iterations;
    return total;
}

// Sweep-kernel telemetry aggregated per grid point: wall time inside the
// sweep loops and the state-update throughput they sustained (states/sec is
// the sweep-time-weighted mean across the point's solves).
struct KernelSummary {
    double sweep_s = 0.0;
    double states_per_sec = 0.0;
};

KernelSummary kernel_summary(const hap::obs::MetricsSnapshot& snap,
                             const std::string& label) {
    KernelSummary out;
    double weighted = 0.0;
    for (const auto& t : snap.solvers) {
        if (t.label != label || t.sweep_time_s <= 0.0) continue;
        out.sweep_s += t.sweep_time_s;
        weighted += t.states_per_sec * t.sweep_time_s;
    }
    if (out.sweep_s > 0.0) out.states_per_sec = weighted / out.sweep_s;
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace hap::core;
    using namespace hap::experiment;

    hap::bench::header("solver_continuation",
                       "warm-start + adaptive-truncation speedup on the Fig. 12 load sweep");
    std::printf("engine: %s (HAP_BENCH_WARM=0 to disable)\n",
                hap::bench::warm_starts() ? "on" : "off");
    const char* sweep_path = detail::line_sweep_path();
    std::printf("line sweep: %s\n\n", sweep_path);

    // 15 points at scale 1; HAP_BENCH_SCALE densifies the grid.
    const std::size_t npoints = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::lround(15.0 * hap::bench::scale())), 7, 121);
    const double lo = 0.4;
    const double hi = 1.3;
    const double mu = 17.0;

    std::vector<AnalyticPoint> grid;
    for (std::size_t i = 0; i < npoints; ++i) {
        const double s =
            lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(npoints - 1);
        AnalyticPoint pt;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "fig12.scale=%.4f", s);
        pt.name = buf;
        pt.params = HapParams::paper_baseline(mu);
        pt.params.user_arrival_rate *= s;
        pt.coord = s;
        grid.push_back(pt);
    }

    AnalyticSweepOptions cold;
    cold.warm_start = false;
    cold.adaptive = false;
    cold.solver.tol = 1e-7;
    cold.solver.check_every = 10;
    cold.solver.max_users = 20;
    cold.solver.max_apps = 50;
    cold.solver.max_messages = 300;

    AnalyticSweepOptions warm = cold;
    warm.warm_start = hap::bench::warm_starts();
    warm.adaptive = hap::bench::warm_starts();

    hap::obs::set_enabled(true);

    hap::obs::registry().reset();
    const auto cold_res = run_analytic_sweep(grid, cold);
    const std::uint64_t cold_iters = telemetry_iterations();

    hap::obs::registry().reset();
    const auto warm_res = run_analytic_sweep(grid, warm);
    const std::uint64_t warm_iters = telemetry_iterations();
    const auto warm_snap = hap::obs::registry().snapshot();

    JsonWriter json("solver_continuation");
    std::printf("%-20s %11s %11s %7s %5s %10s %10s\n", "point", "cold.sweeps",
                "warm.sweeps", "growths", "warm?", "|d delay|", "|d util|");
    std::size_t cold_sweeps = 0;
    std::size_t warm_sweeps = 0;
    double worst_delay = 0.0;
    double worst_util = 0.0;
    bool all_converged = true;
    for (std::size_t i = 0; i < cold_res.size(); ++i) {
        const auto& c = cold_res[i].s0;
        const auto& w = warm_res[i].s0;
        all_converged = all_converged && c.converged && w.converged;
        cold_sweeps += c.sweeps;
        warm_sweeps += w.sweeps;
        const double dd = std::abs(w.mean_delay - c.mean_delay) / c.mean_delay;
        const double du = std::abs(w.utilization - c.utilization) / c.utilization;
        worst_delay = std::max(worst_delay, dd);
        worst_util = std::max(worst_util, du);
        std::printf("%-20s %11zu %11zu %7zu %5s %10.2e %10.2e\n", cold_res[i].name.c_str(),
                    c.sweeps, w.sweeps, w.box_growths, w.warm_started ? "yes" : "no", dd,
                    du);

        Json pt = JsonWriter::point(cold_res[i].name);
        Json params = Json::object();
        params.set("lambda_scale", Json::number(grid[i].coord));
        params.set("mu2", Json::number(mu));
        pt.set("params", params);
        pt.set("cold_sweeps", Json::integer(static_cast<std::uint64_t>(c.sweeps)));
        pt.set("warm_sweeps", Json::integer(static_cast<std::uint64_t>(w.sweeps)));
        pt.set("box_growths", Json::integer(static_cast<std::uint64_t>(w.box_growths)));
        pt.set("warm_started", Json::boolean(w.warm_started));
        pt.set("mean_delay", Json::number(w.mean_delay));
        pt.set("utilization", Json::number(w.utilization));
        pt.set("delay_rel_delta", Json::number(dd));
        pt.set("util_rel_delta", Json::number(du));
        // Per-point sweep-kernel timing from the warm leg's telemetry.
        // Informational only — bench_compare reports but never gates on
        // wall-clock-derived fields.
        const KernelSummary ks = kernel_summary(warm_snap, cold_res[i].name);
        if (ks.sweep_s > 0.0) {
            pt.set("sweep_s", Json::number(ks.sweep_s));
            pt.set("states_per_sec", Json::number(ks.states_per_sec));
        }
        json.add_point(pt);
    }

    const double ratio =
        warm_iters > 0 ? static_cast<double>(cold_iters) / static_cast<double>(warm_iters)
                       : 0.0;
    std::printf("\ntelemetry iterations: cold %llu, warm %llu  ->  ratio %.2fx "
                "(target >= 2x when engine on)\n",
                static_cast<unsigned long long>(cold_iters),
                static_cast<unsigned long long>(warm_iters), ratio);
    std::printf("solution-0 sweeps:    cold %zu, warm %zu  ->  ratio %.2fx\n", cold_sweeps,
                warm_sweeps,
                static_cast<double>(cold_sweeps) / static_cast<double>(warm_sweeps));
    std::printf("worst relative delta: delay %.2e, utilization %.2e (must be <= 1e-6)\n",
                worst_delay, worst_util);

    json.meta("iterations_cold", Json::integer(cold_iters));
    json.meta("iterations_warm", Json::integer(warm_iters));
    json.meta("iteration_ratio", Json::number(ratio));
    json.meta("warm_enabled", Json::boolean(hap::bench::warm_starts()));
    json.meta("line_sweep_path", Json::string(sweep_path));
    json.meta("grid_points", Json::integer(static_cast<std::uint64_t>(npoints)));
    json.meta("worst_delay_delta", Json::number(worst_delay));
    json.meta("worst_util_delta", Json::number(worst_util));
    double total_sweep_s = 0.0;
    double total_weighted = 0.0;
    for (const auto& t : warm_snap.solvers) {
        if (t.sweep_time_s <= 0.0) continue;
        total_sweep_s += t.sweep_time_s;
        total_weighted += t.states_per_sec * t.sweep_time_s;
    }
    if (total_sweep_s > 0.0) {
        std::printf("sweep-kernel throughput: %.3g states/sec over %.3f s in kernels\n",
                    total_weighted / total_sweep_s, total_sweep_s);
        json.meta("states_per_sec", Json::number(total_weighted / total_sweep_s));
        json.meta("sweep_s_total", Json::number(total_sweep_s));
    }
    hap::bench::finish_json(json, hap::bench::json_path(argc, argv));

    // Exit code reflects *correctness* (agreement + convergence); the
    // performance ratio is tracked by tools/bench_compare.py against the
    // checked-in baseline rather than gating the run.
    const bool ok = all_converged && worst_delay <= 1e-6 && worst_util <= 1e-6;
    if (!ok) std::printf("\nFAIL: warm results diverge from cold baseline\n");
    return ok ? 0 : 1;
}
