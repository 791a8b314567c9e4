// Simulation event-engine throughput: events/sec on fixed deterministic
// workloads, the simulator-side counterpart of the solver's states/sec lane.
//
// Four lanes, each a single-threaded run on a pinned substream seed:
//   fig12_ref      simulate_hap_queue on the paper baseline at mu'' = 17,
//                  lambda scaled to 0.8 (the Fig. 12 reference point) — the
//                  workload every simulated figure is built from;
//   stress_10type  simulate_hap_queue on a 10-application-type system
//                  (33-entry category table) — the shape the network-of-
//                  queues and rival-model roadmap items will run at;
//   gm1_hap        simulate_queue_t<HapSource, Exponential> — exercises
//                  HapSource::next plus the devirtualized G/M/1 kernel
//                  (the dispatcher cannot name HapSource without inverting
//                  the core -> queueing dependency, so the bench
//                  instantiates the template itself);
//   mm1_poisson    simulate_queue driven by PoissonSource — the
//                  devirtualized fast-path lane.
//
// Event counts are deterministic per (seed, workload): tools/bench_compare.py
// gates on them drifting (a semantics change), while events/sec is
// informational only (wall clock moves with the machine, not the code).
// Results land in the hap.bench.result/v1 schema; the checked-in baseline is
// bench/BENCH_sim.json (see DESIGN.md section 4k for re-baselining rules).
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "core/hap.hpp"
#include "queueing/queue_sim.hpp"
#include "sim/neglog1m.hpp"
#include "traffic/poisson.hpp"

namespace {

using hap::experiment::Json;
using hap::experiment::JsonWriter;

struct LaneResult {
    std::uint64_t events = 0;
    double wall_s = 0.0;
    double delay_mean = 0.0;  // sanity anchor: pinned by the golden suite
};

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

hap::sim::RandomStream lane_stream(const char* lane) {
    return hap::sim::RandomStream::substream(
        hap::experiment::kDefaultMasterSeed, 0,
        hap::sim::component_id(std::string("sim_throughput.") + lane));
}

LaneResult run_hap_lane(const char* lane, const hap::core::HapParams& params,
                        double horizon) {
    hap::core::HapSimOptions opts;
    opts.warmup = 5e3;
    opts.horizon = opts.warmup + horizon * hap::bench::scale();
    hap::sim::RandomStream rng = lane_stream(lane);
    const double t0 = now_s();
    const hap::core::HapSimResult res =
        hap::core::simulate_hap_queue(params, rng, opts);
    LaneResult r;
    r.wall_s = now_s() - t0;
    r.events = res.events;
    r.delay_mean = res.delay.mean();
    return r;
}

template <typename Arrivals, typename Service>
LaneResult run_queue_lane(const char* lane, Arrivals& arrivals,
                          const Service& service, double horizon) {
    hap::queueing::QueueSimOptions opts;
    opts.warmup = 5e3;
    opts.horizon = opts.warmup + horizon * hap::bench::scale();
    hap::sim::RandomStream rng = lane_stream(lane);
    const double t0 = now_s();
    const hap::queueing::QueueSimResult res =
        hap::queueing::simulate_queue_t(arrivals, service, rng, opts);
    LaneResult r;
    r.wall_s = now_s() - t0;
    r.events = res.events;
    r.delay_mean = res.delay.mean();
    return r;
}

void report(JsonWriter& json, const char* lane, const LaneResult& r,
            double horizon) {
    const double eps = r.wall_s > 0.0 ? static_cast<double>(r.events) / r.wall_s : 0.0;
    std::printf("%-14s %14llu events %9.3f s %12.3g events/sec  (T=%.6f)\n", lane,
                static_cast<unsigned long long>(r.events), r.wall_s, eps,
                r.delay_mean);
    Json point = JsonWriter::point(lane);
    Json params = Json::object();
    params.set("horizon", Json::number(horizon * hap::bench::scale()));
    point.set("params", std::move(params));
    point.set("events", Json::integer(r.events));
    point.set("wall_s", Json::number(r.wall_s));
    point.set("events_per_sec", Json::number(eps));
    point.set("delay_mean", Json::number(r.delay_mean));
    json.add_point(std::move(point));
}

}  // namespace

int main(int argc, char** argv) {
    using namespace hap::core;
    hap::bench::header("sim throughput",
                       "event-engine events/sec on pinned workloads");
    hap::bench::paper_note(
        "not a paper figure: the perf lane keeping every simulated figure "
        "(11-18) and statistical suite fast as event counts scale up");

    JsonWriter json("sim_throughput");
    // The exponential inversion path: "libm" on a host without the AVX-512
    // kernel (or whose libm the kernel does not match) explains a slower
    // run without changing a single event count.
    const char* exp_path = hap::sim::neglog1m_path();
    std::printf("exponential inversion: %s\n\n", exp_path);

    // Reference lane: the Fig. 12 load=0.8 workload (5 app types x 3 message
    // types, the paper baseline every simulated figure reuses).
    HapParams ref = HapParams::paper_baseline(17.0);
    ref.user_arrival_rate *= 0.8;
    const LaneResult fig12 = run_hap_lane("fig12_ref", ref, 1e6);
    report(json, "fig12_ref", fig12, 1e6);

    // Stress lane: 10 application types (33-entry category table), load ~0.75.
    const HapParams stress =
        HapParams::homogeneous(0.0055, 0.001, 0.01, 0.01, 10, 0.1, 3, 22.0);
    const LaneResult s10 = run_hap_lane("stress_10type", stress, 5e5);
    report(json, "stress_10type", s10, 5e5);

    // G/M/1 kernel lanes, both on the devirtualized template: HAP-driven
    // (HapSource::next dominates) and Poisson-driven (pure kernel, nothing
    // to hide behind).
    HapSource hap_src(ref);
    const hap::sim::Exponential service(17.0);
    const LaneResult gm1 = run_queue_lane("gm1_hap", hap_src, service, 1e6);
    report(json, "gm1_hap", gm1, 1e6);

    hap::traffic::PoissonSource poisson(ref.mean_message_rate());
    const LaneResult mm1 = run_queue_lane("mm1_poisson", poisson, service, 2e6);
    report(json, "mm1_poisson", mm1, 2e6);

    const double ref_eps =
        fig12.wall_s > 0.0 ? static_cast<double>(fig12.events) / fig12.wall_s : 0.0;
    json.meta("events_per_sec", Json::number(ref_eps));
    json.meta("ref_label", Json::string("fig12_ref"));
    json.meta("exp_path", Json::string(exp_path));
    std::printf("\nreference lane (fig12_ref): %.3g events/sec\n", ref_eps);

    hap::bench::finish_json(json, hap::bench::json_path(argc, argv));
    return 0;
}
