// sim_fig12: the Fig. 12 HAP/M/1 simulation sweep at mu'' = 17.
//
// Seven load points x 8 replications at fixed horizons run on
// ExperimentRunner; Scenario::master_seed is the workload seed. This is the
// path every simulated figure takes: sim RNG/inversion and the
// core::simulate_hap_queue event loop under the runner's parallel_for, with
// no markov or service code on it. The runner gets one thread: on a shared
// virtual machine every extra busy vCPU is another chance for a co-tenant to
// slow the pass, and the per-replication times are what is measured.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hap_params.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using hap::experiment::ContainedSweep;
using hap::experiment::ExperimentRunner;
using hap::experiment::ReplicationResult;
using hap::experiment::Scenario;

constexpr double kService = 17.0;
constexpr double kWarmup = 1e4;
constexpr double kHorizon = 3.5e4;  // model time per replication after warmup
constexpr std::size_t kReplications = 8;
constexpr int kSetupReps = 25;
constexpr std::size_t kThreads = 1;
const std::vector<double> kLoadScales{0.4, 0.6, 0.8, 1.0, 1.1, 1.2, 1.3};

std::vector<Scenario> build_grid(std::uint64_t seed) {
    std::vector<Scenario> grid;
    for (double scale : kLoadScales) {
        Scenario sc;
        char name[48];
        std::snprintf(name, sizeof(name), "perfbench.fig12.load=%.2f", scale);
        sc.name = name;
        sc.params = hap::core::HapParams::paper_baseline(kService);
        sc.params.user_arrival_rate *= scale;
        sc.warmup = kWarmup;
        sc.horizon = kWarmup + kHorizon;
        sc.replications = kReplications;
        sc.master_seed = seed;
        sc.validate();
        grid.push_back(std::move(sc));
    }
    return grid;
}

struct PassResult {
    double wall_s = 0.0;
    std::uint64_t events = 0;
    std::uint64_t replications = 0;
    std::uint64_t failures = 0;
    std::uint64_t digest = 0;
    std::vector<double> rep_s;  // wall time of each replication, grid-major
};

std::size_t point_of(const std::vector<Scenario>& grid, const Scenario& sc) {
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (grid[i].name == sc.name) return i;
    throw std::logic_error("replication of an unknown scenario " + sc.name);
}

PassResult run_pass(const ExperimentRunner& runner, const std::vector<Scenario>& grid) {
    PassResult out;
    out.rep_s.assign(grid.size() * kReplications, 0.0);
    const Span pass_span("bench.pass");
    std::uint64_t sweep_span = 0;
    // One slot per (scenario, replication): each job writes only its own.
    const ExperimentRunner::SimulateFn simulate =
        [&](const Scenario& sc, std::uint64_t run_id,
            hap::sim::RandomStream& rng) -> ReplicationResult {
        const std::size_t point = point_of(grid, sc);
        const Span span("core.simulate_hap_queue", sweep_span, 0);
        const std::int64_t t0 = now_ns();
        ReplicationResult r = ExperimentRunner::simulate_hap(sc, run_id, rng);
        out.rep_s[point * kReplications + run_id] =
            static_cast<double>(now_ns() - t0) * 1e-9;
        return r;
    };
    const std::int64_t t0 = now_ns();
    ContainedSweep sweep;
    {
        const Span span("experiment.run_all_contained");
        sweep_span = span.id();
        sweep = runner.run_all_contained(grid, simulate);
    }
    out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;

    std::vector<double> values;
    for (const auto& m : sweep.merged) {
        out.events += m.events;
        out.replications += m.replications;
        values.push_back(m.delay_mean.mean);
        values.push_back(m.number_mean.mean);
        values.push_back(m.utilization.mean);
        values.push_back(m.throughput.mean);
        values.push_back(static_cast<double>(m.events));
    }
    out.failures = sweep.failures.size();
    out.digest = digest_doubles(values);
    return out;
}

}  // namespace

void run_sim_fig12(const Config& cfg, Report& rep) {
    // Set-up: scenario grid build and validation plus the runner. (Threads
    // are spawned per sweep, inside the measured passes; there is no pool to
    // start.) Repeated before every pass, so the median spans the whole run.
    std::vector<double> setup;
    auto set_up = [&] {
        for (int i = 0; i < kSetupReps; ++i) {
            const std::int64_t t0 = now_ns();
            const std::vector<Scenario> g = build_grid(cfg.seed);
            [[maybe_unused]] const ExperimentRunner r(kThreads);
            setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        }
    };
    const std::vector<Scenario> grid = build_grid(cfg.seed);
    const ExperimentRunner runner(kThreads);

    std::vector<PassResult> passes;
    PassClock clock(cfg.seconds, 2);
    while (clock.another()) {
        set_up();
        passes.push_back(run_pass(runner, grid));
        clock.done(passes.back().wall_s);
    }

    // Every pass repeats the same replications bit for bit (checked below),
    // so each replication's best time over the passes is its time with the
    // least interference from the rest of the host; the metrics are taken
    // from those best times.
    std::vector<double> best(passes.front().rep_s);
    std::vector<double> wall;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const PassResult& p : passes) {
        for (std::size_t j = 0; j < best.size(); ++j) best[j] = std::min(best[j], p.rep_s[j]);
        wall.push_back(p.wall_s);
        attempted += grid.size() * kReplications;
        failed += p.failures;
        rep.check("sim.passes_identical", p.digest == passes.front().digest &&
                                              p.events == passes.front().events,
                  "merged means and events repeat across passes");
    }
    rep.attempt(attempted, failed);
    rep.check("sim.no_failed_replications", failed == 0,
              std::to_string(failed) + " failed replications");

    // A grid point's latency is the time its replications take end to end.
    double best_total = 0.0;
    std::vector<double> point_ms(grid.size(), 0.0);
    for (std::size_t j = 0; j < best.size(); ++j) {
        best_total += best[j];
        point_ms[j / kReplications] += best[j] * 1e3;
    }
    const std::size_t n_timed = best.size() * passes.size();
    rep.e2e("setup_s", median(setup), "s", setup.size());
    rep.e2e("throughput", static_cast<double>(passes.front().events) / best_total, "1/s",
            n_timed);
    rep.e2e("p50_ms", quantile(point_ms, 0.5), "ms", n_timed);
    rep.e2e("p99_ms", quantile(point_ms, 0.99), "ms", n_timed);
    rep.note("throughput",
             "events_per_s: simulated events of one sweep / sum of its replications' best wall "
             "times over " + std::to_string(passes.size()) + " passes, on " +
                 std::to_string(kThreads) + " thread");
    rep.note("p50_ms", "per grid point: sum of its replications' best wall times");

    const PassResult& first = passes.front();
    rep.ledger("sim.events_per_pass", first.events);
    rep.ledger("sim.replications_per_pass", first.replications);
    rep.ledger("sim.means_digest", first.digest);

    if (!cfg.trace) return;

    Tracer::get().set_on(true);
    const PassResult traced = run_pass(runner, grid);
    Tracer::get().set_on(false);
    rep.check("sim.traced_equals_untraced",
              traced.digest == first.digest && traced.events == first.events,
              "merged means bit-identical with tracing on");

    double rep_total = 0.0;
    for (double s : traced.rep_s) rep_total += s;
    rep.layer("core.hap_sim.ns_per_event", rep_total * 1e9 / static_cast<double>(traced.events));
    rep.layer("core.hap_sim.events", static_cast<double>(traced.events));
    rep.layer("experiment.runner.busy_frac",
              rep_total / (static_cast<double>(kThreads) * traced.wall_s));
    rep.layer("trace.overhead_frac", (traced.wall_s - median(wall)) / median(wall));
    rep.layer("error_rate", static_cast<double>(failed) / static_cast<double>(attempted));
}

}  // namespace perfbench
