#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace perfbench {

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double idx = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(idx));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void warm_up(double seconds, std::size_t threads) {
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    auto spin = [end] {
        while (now_ns() < end) {
        }
    };
    std::vector<std::thread> pool;  // haplint: allow(naked-thread)
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(spin);
    spin();
    for (auto& t : pool) t.join();
}

std::size_t nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0) return static_cast<std::size_t>(n);
    }
    return 1;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- tracer ---------------------------------------------------------------

namespace {
thread_local std::uint64_t t_current = 0;
}  // namespace

Tracer& Tracer::get() {
    static Tracer tracer;
    return tracer;
}

void Tracer::record(SpanRecord rec) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(rec));
}

std::vector<SpanRecord> Tracer::spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

Span::Span(const char* name, std::uint64_t parent, std::uint64_t request)
    : name_(name), request_(request) {
    Tracer& tr = Tracer::get();
    if (!tr.on()) return;
    id_ = tr.next_id();
    parent_ = parent != 0 ? parent : t_current;
    saved_current_ = t_current;
    t_current = id_;
    start_ns_ = now_ns();
}

Span::~Span() {
    if (id_ == 0) return;
    const std::int64_t end = now_ns();
    t_current = saved_current_;
    try {
        Tracer::get().record(SpanRecord{name_, start_ns_, end, id_, parent_, request_});
    } catch (...) {  // a lost span must not take the run down from a dtor
    }
}

std::uint64_t current_span() { return t_current; }

std::map<std::string, LayerTime> layer_self_times(const std::vector<SpanRecord>& spans) {
    std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
    for (const SpanRecord& s : spans)
        if (s.parent != 0) children[s.parent].push_back(&s);

    std::map<std::string, LayerTime> out;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const SpanRecord& s : spans) {
        const std::int64_t dur = s.end_ns - s.start_ns;
        // Children may run on several threads at once: subtract the union of
        // their intervals (clipped to the parent), not their sum.
        iv.clear();
        const auto it = children.find(s.id);
        if (it != children.end())
            for (const SpanRecord* c : it->second) {
                const std::int64_t a = std::max(c->start_ns, s.start_ns);
                const std::int64_t b = std::min(c->end_ns, s.end_ns);
                if (b > a) iv.emplace_back(a, b);
            }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_a = 0;
        std::int64_t cur_b = -1;
        for (const auto& [a, b] : iv) {
            if (a > cur_b) {
                if (cur_b > cur_a) covered += cur_b - cur_a;
                cur_a = a;
                cur_b = b;
            } else {
                cur_b = std::max(cur_b, b);
            }
        }
        if (cur_b > cur_a) covered += cur_b - cur_a;

        const std::string layer = s.name.substr(0, s.name.find('.'));
        LayerTime& lt = out[layer];
        ++lt.spans;
        lt.total_s += static_cast<double>(dur) * 1e-9;
        lt.self_s += static_cast<double>(dur - covered) * 1e-9;
    }
    return out;
}

// --- calibration lane -----------------------------------------------------

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

volatile double g_sink = 0.0;

}  // namespace

Calibration run_calibration() {
    Calibration c;
    constexpr std::size_t kReps = 7;
    constexpr std::size_t kDraws = 1u << 21;
    std::uint64_t state = 0x1234567ULL;
    c.uniform_ns = median_ns_per_op(kReps, kDraws, [&](std::size_t n) {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            acc += static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
        g_sink = acc;
    });
    std::vector<double> u(kDraws);
    for (double& x : u) x = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
    c.log1p_ns = median_ns_per_op(kReps, kDraws, [&](std::size_t n) {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) acc += std::log1p(-u[i]);
        g_sink = acc;
    });
    // Streaming copy of 32 MiB, far beyond any cache level.
    constexpr std::size_t kWords = (32u << 20) / sizeof(double);
    std::vector<double> a(kWords, 1.0);
    std::vector<double> b(kWords, 0.0);
    std::vector<double> secs;
    for (std::size_t r = 0; r < kReps; ++r) {
        const std::int64_t t0 = now_ns();
        std::memcpy(b.data(), a.data(), kWords * sizeof(double));
        secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        a[r] = b[kWords - 1 - r];
    }
    g_sink = b[kWords / 2];
    c.stream_gbps = 2.0 * static_cast<double>(kWords * sizeof(double)) / median(secs) * 1e-9;
    return c;
}

// --- report ---------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
    static const std::vector<std::pair<std::string, std::string>> names{
        {"sim.uniform_ns", "ns"},
        {"sim.exp_ns", "ns"},
        {"core.hap_sim.ns_per_event", "ns"},
        {"core.hap_sim.events", "count"},
        {"core.solution0.sweeps", "count"},
        {"core.solution0.box_growths", "count"},
        {"core.solution0.states_per_s", "1/s"},
        {"core.solve_direct_ms", "ms"},
        {"experiment.runner.busy_frac", "ratio"},
        {"experiment.fallback.attempts", "count"},
        {"experiment.fallback.recovered", "count"},
        {"parallel.fork_join_us", "us"},
        {"parallel.pool_handoff_us", "us"},
        {"markov.csr_build_s", "s"},
        {"markov.coloring_s", "s"},
        {"markov.gs_sweeps", "count"},
        {"markov.sweep_ns_per_state.t1", "ns"},
        {"markov.sweep_ns_per_state.tN", "ns"},
        {"markov.scaling_eff", "ratio"},
        {"markov.check_overhead_frac", "ratio"},
        {"markov.bytes_per_sweep", "B"},
        {"service.protocol.encode_us", "us"},
        {"service.protocol.parse_us", "us"},
        {"service.cache.lookup_us", "us"},
        {"service.rtt_hit_us", "us"},
        {"service.cache.nearest_us", "us"},
        {"service.cache.insert_ms", "ms"},
        {"service.solve_ms.p50", "ms"},
        {"service.solve_ms.p99", "ms"},
        {"service.batch.coalesced_frac", "ratio"},
        {"service.hit_ratio", "ratio"},
        {"service.request_ms.p50", "ms"},
        {"service.request_ms.p99", "ms"},
        {"service.overload.approx", "count"},
        {"service.overload.clamped", "count"},
        {"service.overload.shed", "count"},
        {"service.overload.deadline_exceeded", "count"},
        {"service.ladder.max_rps", "1/s"},
        {"gen.lag_ms.p99", "ms"},
        {"gen.backlog_end", "count"},
        {"error_rate", "ratio"},
        {"degraded_rate", "ratio"},
        {"trace.overhead_frac", "ratio"},
        {"self_s.bench", "s"},
        {"self_s.sim", "s"},
        {"self_s.core", "s"},
        {"self_s.experiment", "s"},
        {"self_s.parallel", "s"},
        {"self_s.markov", "s"},
        {"self_s.service", "s"},
        {"calib.uniform_ns", "ns"},
        {"calib.log1p_ns", "ns"},
        {"calib.stream_gbps", "GB/s"},
    };
    return names;
}

Report::Report() {
    for (const auto& [name, unit] : layer_metric_names()) layer_[name] = Metric{0.0, unit, 0};
}

void Report::e2e(const std::string& name, double value, const std::string& unit,
                 std::size_t n) {
    e2e_[name] = Metric{value, unit, n};
}

void Report::layer(const std::string& name, double value, std::size_t n) {
    const auto it = layer_.find(name);
    if (it == layer_.end()) throw std::logic_error("unknown per-layer metric " + name);
    it->second.value = value;
    it->second.n = n;
}

void Report::ledger(const std::string& name, std::uint64_t value) { ledger_[name] = value; }

void Report::check(const std::string& name, bool ok, const std::string& detail) {
    CheckResult& c = checks_[name];
    // A check recorded several times (once per pass) fails if any failed;
    // the first failure's detail is kept.
    if (c.ok && !ok) c.detail = detail;
    if (c.ok && ok && c.detail.empty()) c.detail = detail;
    c.ok = c.ok && ok;
}

void Report::note(const std::string& name, const std::string& text) { notes_[name] = text; }

void Report::attempt(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
}

bool Report::all_checks_ok() const {
    for (const auto& [name, c] : checks_)
        if (!c.ok) return false;
    return true;
}

namespace {

bool is_time_unit(const std::string& unit) {
    return unit == "s" || unit == "ms" || unit == "us" || unit == "ns";
}

double to_ns(double v, const std::string& unit) {
    if (unit == "s") return v * 1e9;
    if (unit == "ms") return v * 1e6;
    if (unit == "us") return v * 1e3;
    return v;
}

}  // namespace

void Report::print(const Calibration& calib) const {
    std::printf("\n%-34s %16s %-6s %8s %16s\n", "end-to-end metric", "value", "unit", "samples",
                "x calib.uniform");
    for (const auto& [name, m] : e2e_) {
        // Ratio to the calibration lane: a time in units of one stdlib
        // uniform draw, a rate in events per uniform draw. Informational.
        char ratio[32] = "";
        if (is_time_unit(m.unit) && calib.uniform_ns > 0.0)
            std::snprintf(ratio, sizeof(ratio), "%16.6g", to_ns(m.value, m.unit) / calib.uniform_ns);
        else if (m.unit == "1/s")
            std::snprintf(ratio, sizeof(ratio), "%16.6g", m.value * calib.uniform_ns * 1e-9);
        std::printf("%-34s %16.6g %-6s %8zu %s\n", name.c_str(), m.value, m.unit.c_str(), m.n,
                    ratio);
    }
    std::printf("\ncalibration lane: uniform %.3f ns, log1p %.3f ns, stream %.2f GB/s\n",
                calib.uniform_ns, calib.log1p_ns, calib.stream_gbps);
    if (!ledger_.empty()) {
        std::printf("\n%-40s %20s\n", "exact-count ledger", "value");
        for (const auto& [name, v] : ledger_)
            std::printf("%-40s %20llu\n", name.c_str(), static_cast<unsigned long long>(v));
    }
    std::printf("\n%-40s %s\n", "output check", "result");
    for (const auto& [name, c] : checks_)
        std::printf("%-40s %s %s\n", name.c_str(), c.ok ? "ok  " : "FAIL", c.detail.c_str());
    std::printf("\nattempted %llu, failed %llu\n", static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
}

namespace {

std::string esc(const std::string& s) {
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(ch));
            out += buf;
        } else {
            out += ch;
        }
    }
    return out;
}

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void write_metrics(std::string& out, const std::map<std::string, Metric>& metrics) {
    out += "{";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        if (!first) out += ",";
        first = false;
        out += "\"" + esc(name) + "\":{\"value\":" + num(m.value) + ",\"unit\":\"" +
               esc(m.unit) + "\",\"n\":" + std::to_string(m.n) + "}";
    }
    out += "}";
}

}  // namespace

bool Report::write_json(const std::string& path, const Config& cfg, const Calibration& calib,
                        const std::map<std::string, LayerTime>& self_times) const {
    std::string out = "{\"workload\":\"" + esc(cfg.workload) +
                      "\",\"seed\":" + std::to_string(cfg.seed) +
                      ",\"trace\":" + (cfg.trace ? "true" : "false") +
                      ",\"threads\":" + std::to_string(cfg.threads) +
                      ",\"attempted\":" + std::to_string(attempted_) +
                      ",\"failed\":" + std::to_string(failed_) + ",\"e2e\":";
    write_metrics(out, e2e_);
    out += ",\"layer\":";
    write_metrics(out, layer_);
    out += ",\"ledger\":{";
    bool first = true;
    for (const auto& [name, v] : ledger_) {
        if (!first) out += ",";
        first = false;
        out += "\"" + esc(name) + "\":" + std::to_string(v);
    }
    out += "},\"checks\":{";
    first = true;
    for (const auto& [name, c] : checks_) {
        if (!first) out += ",";
        first = false;
        out += "\"" + esc(name) + "\":{\"ok\":" + (c.ok ? "true" : "false") +
               ",\"detail\":\"" + esc(c.detail) + "\"}";
    }
    out += "},\"notes\":{";
    first = true;
    for (const auto& [name, text] : notes_) {
        if (!first) out += ",";
        first = false;
        out += "\"" + esc(name) + "\":\"" + esc(text) + "\"";
    }
    out += "},\"calib\":{\"uniform_ns\":" + num(calib.uniform_ns) +
           ",\"log1p_ns\":" + num(calib.log1p_ns) +
           ",\"stream_gbps\":" + num(calib.stream_gbps) + "},\"self_times\":{";
    first = true;
    for (const auto& [layer, lt] : self_times) {
        if (!first) out += ",";
        first = false;
        out += "\"" + esc(layer) + "\":{\"spans\":" + std::to_string(lt.spans) +
               ",\"total_s\":" + num(lt.total_s) + ",\"self_s\":" + num(lt.self_s) + "}";
    }
    out += "}}\n";
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << out;
    return static_cast<bool>(f);
}

// --- passes ---------------------------------------------------------------

PassClock::PassClock(double seconds, std::size_t min_passes)
    : deadline_(now_s() + seconds), min_passes_(min_passes) {}

bool PassClock::another() {
    if (passes_ < min_passes_) return true;
    return now_s() + last_ <= deadline_;
}

void PassClock::done(double pass_s) {
    ++passes_;
    last_ = pass_s;
}

}  // namespace perfbench
