// hapbench — the measuring program behind perfbench/run.py.
//
//   hapbench --workload NAME --seed N --seconds S --trace 0|1
//            --report PATH --workdir DIR
//
// Runs one workload, prints its tables on stdout and writes the full report
// (metrics, exact-count ledger, output checks, calibration, per-layer self
// times) as JSON to PATH. DIR is scratch space inside the checkout. With
// --trace 1 the run adds one traced pass and the per-layer probes, and the
// spans go to DIR/spans-NAME.jsonl.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

void write_spans(const std::string& path, const std::vector<SpanRecord>& spans) {
    std::ofstream f(path, std::ios::trunc);
    for (const SpanRecord& s : spans)
        f << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0) {
            std::fprintf(stderr, "hapbench: unexpected argument %s\n", argv[i]);
            return 2;
        }
        args[key.substr(2)] = argv[i + 1];
    }
    for (const char* required : {"workload", "seed", "seconds", "trace", "report", "workdir"})
        if (args.find(required) == args.end()) {
            std::fprintf(stderr, "hapbench: missing --%s\n", required);
            return 2;
        }

    Config cfg;
    cfg.workload = args["workload"];
    cfg.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    cfg.seconds = std::strtod(args["seconds"].c_str(), nullptr);
    cfg.trace = args["trace"] == "1";
    cfg.threads = nproc();
    cfg.workdir = args["workdir"];

    const std::map<std::string, void (*)(const Config&, Report&)> workloads{
        {"sim_fig12", run_sim_fig12},
        {"analytic_fig12", run_analytic_fig12},
        {"hapd_mix", run_hapd_mix},
    };
    const auto it = workloads.find(cfg.workload);
    if (it == workloads.end()) {
        std::fprintf(stderr, "hapbench: unknown workload %s\n", cfg.workload.c_str());
        return 2;
    }

    try {
        // The program's own counters feed several metrics (solver telemetry,
        // the hapd scrape); they are on in every run, traced or not.
        hap::obs::set_enabled(true);
        std::printf("hapbench %s seed=%llu seconds=%g trace=%d threads=%zu\n",
                    cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                    cfg.seconds, cfg.trace ? 1 : 0, cfg.threads);
        // Spin the CPUs up before anything is timed, so set-up, the first
        // thing measured, does not pay the clock ramp of an idle machine.
        warm_up(0.3, cfg.threads);
        Report rep;
        it->second(cfg, rep);
        // Peak RSS before the calibration lane, whose buffers would mask it.
        rep.e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
        const Calibration calib = run_calibration();

        std::map<std::string, LayerTime> self_times;
        if (cfg.trace) {
            Tracer::get().set_on(true);
            measure_shared_layers(cfg, rep);
            Tracer::get().set_on(false);
            const std::vector<SpanRecord> spans = Tracer::get().spans();
            self_times = layer_self_times(spans);
            std::printf("\n%-12s %8s %14s %14s   (%zu spans)\n", "layer", "spans", "total_s",
                        "self_s", spans.size());
            for (const auto& [layer, lt] : self_times)
                std::printf("%-12s %8zu %14.6f %14.6f\n", layer.c_str(), lt.spans, lt.total_s,
                            lt.self_s);
            for (const auto& [layer, lt] : self_times)
                if (rep.layer_metrics().count("self_s." + layer) != 0)
                    rep.layer("self_s." + layer, lt.self_s, lt.spans);
            write_spans(cfg.workdir + "/spans-" + cfg.workload + ".jsonl", spans);
            rep.layer("calib.uniform_ns", calib.uniform_ns);
            rep.layer("calib.log1p_ns", calib.log1p_ns);
            rep.layer("calib.stream_gbps", calib.stream_gbps);
        }

        rep.print(calib);
        if (!rep.write_json(args["report"], cfg, calib, self_times)) {
            std::fprintf(stderr, "hapbench: cannot write %s\n", args["report"].c_str());
            return 2;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hapbench: %s\n", e.what());
        return 2;
    }
    return 0;
}
