// analytic_fig12: the Solution 0 continuation sweep along the Fig. 12 load
// axis, i.e. the `hapctl sweep --analytic` path.
//
// experiment::run_analytic_sweep solves the points in order with warm
// starts, the secant predictor and the adaptive box, at one fixed tol and
// trunc_tol (kTol / kTruncTol, also stated in BENCHMARK.json). The time goes
// to core/solution0 line relaxation and LumpedChain::solve_direct; there is
// no simulation and no parallel fan-out. Each pass runs two chains of 24
// points, mu'' = 17 (the figure) and mu'' = 18, denser and longer than
// solver_continuation's 15-point leg, so one pass takes seconds; the seed
// shifts every point by the same fraction of a step.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/hap_params.hpp"
#include "experiment/analytic.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using hap::experiment::AnalyticPoint;
using hap::experiment::AnalyticPointResult;
using hap::experiment::AnalyticSweepOptions;

const std::vector<double> kServices{17.0, 18.0};
constexpr double kLo = 0.4;
constexpr double kHi = 1.3;
constexpr std::size_t kPoints = 24;
constexpr double kTol = 1e-7;
constexpr double kTruncTol = 1e-9;
constexpr std::size_t kMaxSweeps = 8000;
constexpr int kSetupReps = 25;

// One continuation chain per mu'' family along the load axis.
std::vector<std::vector<AnalyticPoint>> build_grids(std::uint64_t seed) {
    // Seeded shift in [0, 0.5) of a grid step, the same for every point.
    const double step = (kHi - kLo) / static_cast<double>(kPoints - 1);
    const double shift = 0.5 * static_cast<double>(seed % 1000) / 1000.0 * step;
    std::vector<std::vector<AnalyticPoint>> grids;
    for (double service : kServices) {
        std::vector<AnalyticPoint> grid;
        for (std::size_t i = 0; i < kPoints; ++i) {
            const double s = kLo + shift + step * static_cast<double>(i);
            AnalyticPoint pt;
            char name[64];
            std::snprintf(name, sizeof(name), "perfbench.mu=%g.scale=%.6f", service, s);
            pt.name = name;
            pt.params = hap::core::HapParams::paper_baseline(service);
            pt.params.user_arrival_rate *= s;
            pt.coord = s;
            grid.push_back(std::move(pt));
        }
        grids.push_back(std::move(grid));
    }
    return grids;
}

AnalyticSweepOptions sweep_options() {
    // The hapctl --analytic settings with solver_continuation's box bounds.
    AnalyticSweepOptions o;
    o.warm_start = true;
    o.adaptive = true;
    o.fallback = true;
    o.solver.tol = kTol;
    o.solver.trunc_tol = kTruncTol;
    o.solver.max_sweeps = kMaxSweeps;
    o.solver.check_every = 10;
    o.solver.max_users = 20;
    o.solver.max_apps = 50;
    o.solver.max_messages = 300;
    return o;
}

std::uint64_t counter(const hap::obs::MetricsSnapshot& snap, const std::string& name) {
    for (const auto& [n, v] : snap.counters)
        if (n == name) return v;
    return 0;
}

struct PassResult {
    double wall_s = 0.0;
    std::uint64_t sweeps = 0;
    std::uint64_t growths = 0;
    std::uint64_t bad_points = 0;
    std::uint64_t digest = 0;
    std::vector<double> point_s;  // per-point solve time (solver telemetry)
    std::uint64_t fallback_attempts = 0;
    std::uint64_t fallback_recovered = 0;
    double kernel_s = 0.0;
    double state_updates = 0.0;
    std::string first_bad;
};

PassResult run_pass(const std::vector<std::vector<AnalyticPoint>>& grids,
                    const AnalyticSweepOptions& opts) {
    PassResult out;
    hap::obs::registry().reset();
    std::vector<AnalyticPointResult> res;
    {
        const Span pass_span("bench.pass");
        const std::int64_t t0 = now_ns();
        for (const auto& grid : grids) {
            const Span span("experiment.run_analytic_sweep");
            for (AnalyticPointResult& r : hap::experiment::run_analytic_sweep(grid, opts))
                res.push_back(std::move(r));
        }
        out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    }
    const hap::obs::MetricsSnapshot snap = hap::obs::registry().snapshot();

    std::vector<double> values;
    for (const AnalyticPointResult& r : res) {
        out.sweeps += r.s0.sweeps;
        out.growths += r.s0.box_growths;
        const bool capped = r.s0.budget_exhausted || r.s0.sweeps >= kMaxSweeps;
        if (r.quality != "ok" || !r.s0.converged || capped) {
            if (out.bad_points == 0) out.first_bad = r.name + " quality=" + r.quality;
            ++out.bad_points;
        }
        values.push_back(r.s0.mean_delay);
        values.push_back(r.s0.utilization);
        values.push_back(r.s0.mean_messages);
    }
    out.digest = digest_doubles(values);

    std::map<std::string, double> by_point;
    for (const auto& t : snap.solvers) {
        if (t.solver != "solution0") continue;
        by_point[t.label] += t.wall_time_s;
        out.kernel_s += t.sweep_time_s;
        out.state_updates += t.states_per_sec * t.sweep_time_s;
    }
    for (const auto& [label, s] : by_point) out.point_s.push_back(s);
    out.fallback_attempts = counter(snap, "experiment.fallback.attempts");
    out.fallback_recovered = counter(snap, "experiment.fallback.recovered");
    return out;
}

}  // namespace

void run_analytic_fig12(const Config& cfg, Report& rep) {
    // Set-up: grid and option build, repeated before every pass so the
    // median spans the whole run.
    std::vector<double> setup;
    auto set_up = [&] {
        for (int i = 0; i < kSetupReps; ++i) {
            const std::int64_t t0 = now_ns();
            const auto g = build_grids(cfg.seed);
            [[maybe_unused]] const AnalyticSweepOptions o = sweep_options();
            setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        }
    };
    const auto grids = build_grids(cfg.seed);
    const std::size_t points = kServices.size() * kPoints;
    const AnalyticSweepOptions opts = sweep_options();

    std::vector<PassResult> passes;
    PassClock clock(cfg.seconds, 2);
    while (clock.another()) {
        set_up();
        passes.push_back(run_pass(grids, opts));
        clock.done(passes.back().wall_s);
    }

    const PassResult& first = passes.front();
    std::vector<double> rate;
    std::vector<double> wall;
    std::vector<double> point_ms;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const PassResult& p : passes) {
        rate.push_back(static_cast<double>(points) / p.wall_s);
        wall.push_back(p.wall_s);
        for (double s : p.point_s) point_ms.push_back(s * 1e3);
        attempted += points;
        failed += p.bad_points;
        rep.check("analytic.passes_identical",
                  p.digest == first.digest && p.sweeps == first.sweeps &&
                      p.growths == first.growths,
                  "sweeps, box growths and observables repeat across passes");
        rep.check("analytic.all_converged_uncapped", p.bad_points == 0,
                  p.bad_points == 0 ? std::to_string(points) + " points"
                                    : p.first_bad);
    }
    rep.attempt(attempted, failed);

    rep.e2e("setup_s", median(setup), "s", setup.size());
    rep.e2e("throughput", median(rate), "1/s", rate.size());
    rep.e2e("p50_ms", quantile(point_ms, 0.5), "ms", point_ms.size());
    rep.e2e("p99_ms", quantile(point_ms, 0.99), "ms", point_ms.size());
    rep.note("throughput", "grid points / sweep_s (sweep_s = wall time of one sweep; median " +
                               std::to_string(median(wall)) + " s)");
    rep.note("p50_ms", "per-point Solution 0 solve time");

    rep.ledger("analytic.points", points);
    rep.ledger("analytic.sweeps_per_pass", first.sweeps);
    rep.ledger("analytic.box_growths_per_pass", first.growths);
    rep.ledger("analytic.observables_digest", first.digest);

    if (!cfg.trace) return;

    Tracer::get().set_on(true);
    const PassResult traced = run_pass(grids, opts);
    Tracer::get().set_on(false);
    rep.check("analytic.traced_equals_untraced",
              traced.digest == first.digest && traced.sweeps == first.sweeps,
              "observables bit-identical with tracing on");

    rep.layer("core.solution0.sweeps", static_cast<double>(traced.sweeps));
    rep.layer("core.solution0.box_growths", static_cast<double>(traced.growths));
    rep.layer("core.solution0.states_per_s",
              traced.kernel_s > 0.0 ? traced.state_updates / traced.kernel_s : 0.0);
    rep.layer("experiment.fallback.attempts", static_cast<double>(traced.fallback_attempts));
    rep.layer("experiment.fallback.recovered", static_cast<double>(traced.fallback_recovered));
    rep.layer("trace.overhead_frac", (traced.wall_s - median(wall)) / median(wall));
    Tracer::get().set_on(true);
    measure_lattice_layers(cfg, rep);
    Tracer::get().set_on(false);
    rep.layer("error_rate", static_cast<double>(failed) / static_cast<double>(attempted));
}

}  // namespace perfbench
