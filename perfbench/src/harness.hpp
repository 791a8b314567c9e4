// Shared harness of the repo benchmark: clocks, order statistics, the
// in-memory span tracer, the calibration lane and the run report.
//
// Everything here is bench-side code. It times calls into src/ from the
// outside and never reaches into the program, so a change under src/ can
// move the measured numbers but not the way they are measured.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// --- clocks and order statistics ----------------------------------------

using Clock = std::chrono::steady_clock;

std::int64_t now_ns();
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Median over `reps` calls of fn(inner), in nanoseconds per iteration of
// fn's inner loop; fn must keep its result observable (a volatile sink).
template <class Fn>
double median_ns_per_op(std::size_t reps, std::size_t inner, Fn&& fn) {
    std::vector<double> t;
    t.reserve(reps);
    for (std::size_t r = 0; r < reps; ++r) {
        const std::int64_t t0 = now_ns();
        fn(inner);
        t.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(inner));
    }
    return median(std::move(t));
}

// Busy-spin `threads` threads for `seconds` (standard library only).
void warm_up(double seconds, std::size_t threads);

// Worker count: the CPUs this process may run on (what `nproc` prints).
std::size_t nproc();

// Peak resident set size of this process so far, in MB (getrusage).
double peak_rss_mb();

// --- span tracer ----------------------------------------------------------
//
// A span covers one call from bench code into a layer of the program. Its
// name is "<layer>.<call>"; the layer is the part before the first dot.
// Spans are kept in memory and written out when the run ends. While the
// tracer is off, Span objects cost one relaxed load.

struct SpanRecord {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0 = root
    std::uint64_t request = 0;  // request id (hapd_mix), else 0
};

class Tracer {
public:
    static Tracer& get();

    bool on() const noexcept { return on_.load(std::memory_order_relaxed); }
    void set_on(bool on) noexcept { on_.store(on, std::memory_order_relaxed); }
    std::uint64_t next_id() noexcept { return next_.fetch_add(1) + 1; }
    void record(SpanRecord rec);

    std::vector<SpanRecord> spans() const;

private:
    std::atomic<bool> on_{false};
    std::atomic<std::uint64_t> next_{0};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;  // guarded by mutex_
};

// RAII span. Its parent is the innermost live Span on this thread, unless
// one is given (work handed to another thread names its parent explicitly).
class Span {
public:
    explicit Span(const char* name, std::uint64_t parent = 0, std::uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    std::uint64_t id() const noexcept { return id_; }

private:
    const char* name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t request_ = 0;
    std::uint64_t saved_current_ = 0;
    std::int64_t start_ns_ = 0;
};

// The innermost live span on this thread (0 when none or tracing is off).
std::uint64_t current_span();

// Per-layer totals: summed span time and self time (span time not covered
// by the span's children), in seconds.
struct LayerTime {
    std::size_t spans = 0;
    double total_s = 0.0;
    double self_s = 0.0;
};
std::map<std::string, LayerTime> layer_self_times(const std::vector<SpanRecord>& spans);

// --- calibration lane -------------------------------------------------------
//
// Built from the standard library only, so no change under src/ can move it:
// a SplitMix64 uniform draw, std::log1p, and a streaming copy. Wall-clock
// metrics are also reported as ratios to it, for comparing machines.

struct Calibration {
    double uniform_ns = 0.0;
    double log1p_ns = 0.0;
    double stream_gbps = 0.0;
};
Calibration run_calibration();

// --- run configuration and report ------------------------------------------

struct Config {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::size_t threads = 1;  // nproc
    std::string workdir;      // scratch directory inside the checkout
};

struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t n = 0;  // samples behind the value (0 = not measured here)
};

class Report {
public:
    Report();  // every per-layer metric starts at 0 with n = 0

    // End-to-end metric (always from untraced passes).
    void e2e(const std::string& name, double value, const std::string& unit, std::size_t n);
    // Per-layer metric; the name must be one of layer_metric_names().
    void layer(const std::string& name, double value, std::size_t n = 1);
    // Exact count that must repeat on every run with the same seed.
    void ledger(const std::string& name, std::uint64_t value);
    // Output check; a false one fails the run.
    void check(const std::string& name, bool ok, const std::string& detail = "");
    void note(const std::string& name, const std::string& text);

    void attempt(std::uint64_t attempted, std::uint64_t failed);

    bool all_checks_ok() const;
    const std::map<std::string, Metric>& e2e_metrics() const { return e2e_; }
    const std::map<std::string, Metric>& layer_metrics() const { return layer_; }

    // Human-readable tables on stdout.
    void print(const Calibration& calib) const;
    // Machine-readable report for run.py.
    bool write_json(const std::string& path, const Config& cfg, const Calibration& calib,
                    const std::map<std::string, LayerTime>& self_times) const;

private:
    std::map<std::string, Metric> e2e_;
    std::map<std::string, Metric> layer_;
    std::map<std::string, std::uint64_t> ledger_;
    struct CheckResult {
        bool ok = true;
        std::string detail;
    };
    std::map<std::string, CheckResult> checks_;
    std::map<std::string, std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// Every per-layer metric with its unit, in report order. Each workload's
// traced run reports all of them; a layer a workload does not reach reads 0
// with n = 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();

// Passes of a workload: keep starting passes while the next one is
// expected to end inside the run's measuring window, with a floor.
class PassClock {
public:
    PassClock(double seconds, std::size_t min_passes);
    bool another();          // call before each pass
    void done(double pass_s);  // call after each pass with its wall time

private:
    double deadline_;
    std::size_t min_passes_;
    std::size_t passes_ = 0;
    double last_ = 0.0;
};

}  // namespace perfbench
