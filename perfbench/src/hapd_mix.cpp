// hapd_mix: an in-process service::Hapd with stock ServeOptions — only the
// endpoint (loopback TCP, kernel-assigned port) and a cache file in a fresh
// directory are set, so inserts persist with fsync.
//
// Every request is a solve in one of four light-load families (service
// 28-31, user arrival rate 0.002-0.003), where a warm miss costs about a
// tenth of a second on a 4-vCPU Xeon virtual machine; at the paper
// baseline a miss takes tens of seconds there.
// kHitShare of the requests repeat keys solved earlier (exact hits: cache
// reads), the rest are new coordinates one small step from a solved point
// (warm misses: solve, insert, fsync). The hit share puts p50 on the hit
// path and p99 on the miss path. It is the only workload through protocol,
// cache, server, client and parallel::Pool.
//
// Load comes from one process over min(nproc, workers) persistent
// connections: an open loop at kRate, each request timed from when it was
// due, so a stall also charges the requests queued behind it; then a closed
// loop over two of those connections for the capacity (requests per second
// flat out).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiment/analytic.hpp"
#include "experiment/json.hpp"
#include "obs/metrics.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

std::vector<MixFamily> mix_families() {
    // Fixed, so that a seed changes which keys are asked and in what order
    // but not the cost of a solve.
    return {MixFamily{28.0}, MixFamily{29.0}, MixFamily{30.0}, MixFamily{31.0}};
}

hap::service::ModelSpec mix_spec(const MixFamily& fam, double lambda) {
    hap::service::ModelSpec m;
    m.service = fam.service;
    m.lambda = lambda;
    return m;
}

namespace {

using hap::experiment::Json;
using hap::service::Client;
using hap::service::Hapd;
using hap::service::ModelSpec;
using hap::service::ServeOptions;

constexpr double kHitShare = 0.98;
constexpr double kMissStep = 1e-6;           // user arrival rate step of a miss
constexpr std::size_t kPrimedPerFamily = 8;
constexpr int kSetupReps = 21;               // daemon starts per batch
constexpr double kRate = 400.0;            // offered requests/s, fixed-rate phase
constexpr std::size_t kClosedRequests = 6000;
constexpr std::size_t kClosedConns = 2;      // closed loop: at most two solves at once
constexpr double kP99LimitMs = 500.0;      // ladder limit (trace runs)
const std::vector<double> kLadder{200.0, 400.0, 800.0, 1600.0, 3200.0};
constexpr double kLadderStepS = 2.0;
constexpr std::size_t kCheckedMisses = 3;  // misses re-solved cold
constexpr double kCheckRel = 1e-6;
constexpr std::int64_t kSpinNs = 200000;  // open-loop send: spin the last 200 us

constexpr std::size_t kAnyConn = static_cast<std::size_t>(-1);

struct Request {
    ModelSpec spec;
    std::string key;
    bool hit = false;              // planned: key solved before this phase
    std::size_t conn = kAnyConn;   // connection that must send it, if any
};

// Seeded request stream. Hits repeat keys from the pool. A miss takes the
// next primed point of its family in turn and steps kMissStep past the last
// coordinate asked near it, so its nearest solved neighbour is always one
// step away and every seed asks for the same solves, in another order.
class MixGen {
public:
    explicit MixGen(std::uint64_t seed)
        : fams_(mix_families()),
          rng_(hap::sim::RandomStream::substream(
              seed, 0, hap::sim::component_id("perfbench.hapd.mix"))) {}

    // kPrimedPerFamily evenly spread coordinates per family (with jitter).
    std::vector<Request> primes() {
        std::vector<Request> out;
        for (std::size_t f = 0; f < fams_.size(); ++f)
            for (std::size_t i = 0; i < kPrimedPerFamily; ++i) {
                const double base = 0.002 + 0.001 * (static_cast<double>(i) + 0.5) /
                                                static_cast<double>(kPrimedPerFamily);
                const double lambda =
                    std::round((base + 2e-5 * (rng_.uniform() - 0.5)) * 1e7) / 1e7;
                out.push_back(make(fams_[f], lambda));
                anchor_last_.push_back(lambda);
            }
        for (const Request& r : out) pool_.push_back(r);
        return out;
    }

    // Exactly round(n * (1 - kHitShare)) misses at seeded positions, so every
    // seed asks for the same amount of solving. Misses take the families in
    // turn, so two misses of one family seldom overlap and coalesce by
    // chance. With conns > 0 (the closed loop) every request names its
    // connection, one family per connection, so no two misses of a family
    // are ever in flight together and each connection gets the same share
    // of the solving.
    std::vector<Request> phase(std::size_t n, std::size_t conns = 0) {
        const std::size_t n_miss =
            static_cast<std::size_t>(std::lround(static_cast<double>(n) * (1.0 - kHitShare)));
        std::vector<bool> is_miss(n, false);
        for (std::size_t i = 0; i < n_miss; ++i) is_miss[i] = true;
        for (std::size_t i = n; i > 1; --i) {
            const std::size_t j = rng_.below(i);
            const bool tmp = is_miss[i - 1];
            is_miss[i - 1] = is_miss[j];
            is_miss[j] = tmp;
        }
        std::vector<Request> out;
        std::vector<Request> misses;
        std::size_t hits_made = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!is_miss[i]) {
                Request r = pool_[rng_.below(pool_.size())];
                r.hit = true;
                r.conn = conns > 0 ? hits_made++ % conns : kAnyConn;
                out.push_back(r);
            } else {
                const std::size_t f = next_family_++ % fams_.size();
                const std::size_t a = family_misses_[f]++ % kPrimedPerFamily;
                double& last = anchor_last_[f * kPrimedPerFamily + a];
                last += kMissStep;
                Request r = make(fams_[f], last);
                r.conn = conns > 0 ? f % conns : kAnyConn;
                out.push_back(r);
                misses.push_back(r);
            }
        }
        // A later phase may repeat this phase's misses as hits.
        for (Request r : misses) {
            r.conn = kAnyConn;
            pool_.push_back(r);
        }
        return out;
    }

private:
    Request make(const MixFamily& f, double lambda) const {
        Request r;
        r.spec = mix_spec(f, lambda);
        r.key = hap::service::solve_key(r.spec);
        return r;
    }

    std::vector<MixFamily> fams_;
    hap::sim::RandomStream rng_;
    // Last coordinate asked near each primed point, family-major.
    std::vector<double> anchor_last_;
    std::size_t next_family_ = 0;
    // Misses asked per family so far: they take its primed points in turn,
    // because a solve costs more the higher the arrival rate.
    std::vector<std::size_t> family_misses_ = std::vector<std::size_t>(fams_.size(), 0);
    std::vector<Request> pool_;
};

struct Outcome {
    double due_s = 0.0;   // relative to phase start
    double sent_s = 0.0;
    double done_s = 0.0;
    bool ok = false;
    bool degraded = false;
    bool transport_error = false;
    std::string result;   // raw bytes of the reply's "result" member
};

void parse_reply(const std::string& body, Outcome& o) {
    const Json j = Json::parse(body);
    const Json* ok = j.find("ok");
    o.ok = ok != nullptr && ok->as_bool();
    const Json* q = j.find("quality");
    o.degraded = q != nullptr && q->is_string() &&
                 (q->as_string() == "approx" || q->as_string() == "clamped");
    const std::size_t at = body.find("\"result\":");
    if (o.ok && at != std::string::npos) o.result = body.substr(at);
}

// Run `reqs` over the first n_conns connections. rate > 0: open loop,
// request i due at i / rate; rate == 0: closed loop, each connection sends
// as soon as free. Requests that name a connection are sent by it, in order.
std::vector<Outcome> drive(std::vector<Client>& clients, std::size_t n_conns, int port,
                           const std::vector<Request>& reqs, double rate,
                           std::uint64_t id_base) {
    std::vector<Outcome> out(reqs.size());
    std::atomic<std::size_t> next{0};
    const bool owned = !reqs.empty() && reqs.front().conn != kAnyConn;
    const std::uint64_t phase_span = current_span();
    const std::int64_t t0 = now_ns();
    auto sender = [&](std::size_t c) {
        std::size_t mine = 0;
        for (;;) {
            std::size_t i = 0;
            if (owned) {
                while (mine < reqs.size() && reqs[mine].conn % n_conns != c) ++mine;
                i = mine++;
            } else {
                i = next.fetch_add(1);
            }
            if (i >= reqs.size()) return;
            Outcome& o = out[i];
            if (rate > 0.0) {
                // Sleep to just before the due time, then spin, so the send
                // time does not carry the kernel's wake-up slack.
                o.due_s = static_cast<double>(i) / rate;
                const std::int64_t due_ns = t0 + static_cast<std::int64_t>(o.due_s * 1e9);
                std::this_thread::sleep_until(
                    Clock::time_point(std::chrono::nanoseconds(due_ns - kSpinNs)));
                while (now_ns() < due_ns) {
                }
            }
            const Span span("service.request", phase_span, id_base + i);
            o.sent_s = static_cast<double>(now_ns() - t0) * 1e-9;
            if (rate <= 0.0) o.due_s = o.sent_s;
            try {
                std::string body;
                {
                    const Span s("service.protocol.build_solve_request");
                    body = hap::service::build_solve_request(reqs[i].spec,
                                                             "r" + std::to_string(id_base + i));
                }
                std::string reply;
                {
                    const Span s("service.Client.call");
                    reply = clients[c].call(body);
                }
                o.done_s = static_cast<double>(now_ns() - t0) * 1e-9;
                parse_reply(reply, o);
            } catch (const std::exception&) {
                o.done_s = static_cast<double>(now_ns() - t0) * 1e-9;
                o.transport_error = true;
                try {
                    clients[c] = Client::connect_tcp(port, "127.0.0.1", 5000);
                } catch (const std::exception&) {
                }
            }
        }
    };
    // The load generator's own threads, deliberately not the program's
    // runtime: a change under src/parallel must not change the load.
    std::vector<std::thread> threads;  // haplint: allow(naked-thread)
    for (std::size_t c = 1; c < n_conns; ++c) threads.emplace_back(sender, c);
    try {
        sender(0);
    } catch (...) {
        for (auto& t : threads) t.join();
        throw;
    }
    for (auto& t : threads) t.join();
    return out;
}

Json scrape(Client& client) {
    const Json j = Json::parse(
        client.call(hap::service::build_simple_request(hap::service::Op::Metrics, "m")));
    return j.at("counters");
}

std::uint64_t counter(const Json& counters, const std::string& name) {
    const Json* v = counters.find(name);
    return v == nullptr ? 0 : v->as_uint();
}

// Quantile of an obs log2 histogram, log-interpolated inside its bucket.
double hist_quantile(const hap::obs::HistogramData& h, double q) {
    if (h.count == 0) return 0.0;
    const double target = q * static_cast<double>(h.count);
    double cum = 0.0;
    for (int i = 0; i < hap::obs::HistogramData::kBuckets; ++i) {
        const double c = static_cast<double>(h.buckets[i]);
        if (c > 0.0 && cum + c >= target) {
            const double hi = hap::obs::HistogramData::bucket_upper(i);
            const double lo = hi / 2.0;
            const double v = lo * std::pow(2.0, (target - cum) / c);
            return std::min(std::max(v, h.min), h.max);
        }
        cum += c;
    }
    return h.max;
}

const hap::obs::HistogramData* histogram(const hap::obs::MetricsSnapshot& snap,
                                         const std::string& name) {
    for (const auto& [n, h] : snap.histograms)
        if (n == name) return &h;
    return nullptr;
}

struct Tally {
    std::uint64_t sent = 0;
    std::uint64_t failed = 0;
    std::uint64_t degraded = 0;
};

// Every reply for a key must carry the same result bytes as the first ok one.
class ReplayCheck {
public:
    void add(const Request& r, const Outcome& o, Tally& t) {
        ++t.sent;
        if (!o.ok || o.transport_error) {
            ++t.failed;
            return;
        }
        if (o.degraded) ++t.degraded;
        const auto [it, inserted] = first_.emplace(r.key, o.result);
        if (!inserted) {
            ++repeats_;
            if (it->second != o.result) ++mismatches_;
        }
    }
    const std::string* first(const std::string& key) const {
        const auto it = first_.find(key);
        return it == first_.end() ? nullptr : &it->second;
    }
    std::size_t repeats() const { return repeats_; }
    std::size_t mismatches() const { return mismatches_; }

private:
    std::map<std::string, std::string> first_;
    std::size_t repeats_ = 0;
    std::size_t mismatches_ = 0;
};

struct Daemon {
    std::unique_ptr<Hapd> hapd;
    std::vector<Client> clients;
};

void fresh_dir(const std::string& dir) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

Daemon start_daemon(const std::string& dir, std::size_t connections) {
    ServeOptions opts;
    opts.cache_path = dir + "/cache.ckpt";
    Daemon d;
    d.hapd = std::make_unique<Hapd>(opts);
    d.hapd->start();
    for (std::size_t c = 0; c < connections; ++c)
        d.clients.push_back(Client::connect_tcp(d.hapd->port(), "127.0.0.1", 5000));
    return d;
}

void stop_daemon(Daemon& d) {
    d.clients.clear();
    d.hapd->stop();
    d.hapd.reset();
}

double rel_diff(double a, double b) {
    return std::abs(a - b) / std::max(std::abs(b), 1e-300);
}

// Re-solve one served miss cold, with the daemon's own solver settings.
std::string check_cold(const Request& r, const std::string& served,
                       hap::core::Solution0State* state_out) {
    const ServeOptions stock;
    hap::experiment::AnalyticSweepOptions o;
    o.warm_start = true;
    o.adaptive = true;
    o.fallback = true;
    o.export_states = true;
    o.solver.tol = stock.tol;
    o.solver.trunc_tol = stock.trunc_tol;
    o.solver.max_sweeps = stock.max_sweeps;
    o.solver.max_messages = stock.zmax;
    o.solver.check_every = 10;
    o.solver.budget = stock.budget;
    hap::experiment::AnalyticPoint pt;
    pt.name = r.key;
    pt.params = r.spec.params();
    pt.coord = r.spec.lambda;
    std::vector<hap::experiment::AnalyticPointResult> res =
        hap::experiment::run_analytic_sweep({pt}, o);
    const auto& s0 = res.front().s0;
    const Json got = Json::parse("{" + served).at("result");
    const double worst = std::max({rel_diff(got.at("mean_delay").as_number(), s0.mean_delay),
                                   rel_diff(got.at("utilization").as_number(), s0.utilization),
                                   rel_diff(got.at("mean_messages").as_number(),
                                            s0.mean_messages)});
    if (state_out != nullptr && state_out->empty()) *state_out = res.front().s0.state;
    if (res.front().quality != "ok") return "cold solve quality " + res.front().quality;
    if (worst > kCheckRel) return "relative gap " + std::to_string(worst);
    return "";
}

}  // namespace

void run_hapd_mix(const Config& cfg, Report& rep) {
    const std::size_t conns = std::min(cfg.threads, ServeOptions{}.threads);
    MixGen gen(cfg.seed);

    // Set-up: daemon start (socket, pool, cache file) and the connects, each
    // time a fresh daemon in a fresh directory; the last of the first batch
    // serves the run, a second batch runs beside it after the fixed phase.
    std::vector<double> setup;
    int setups = 0;
    auto timed_start = [&] {
        const std::string dir = cfg.workdir + "/hapd-" + std::to_string(setups++);
        fresh_dir(dir);
        const std::int64_t t0 = now_ns();
        Daemon fresh = start_daemon(dir, conns);
        setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        return fresh;
    };
    Daemon d;
    for (int i = 0; i < kSetupReps; ++i) {
        if (d.hapd) stop_daemon(d);
        d = timed_start();
    }
    const int port = d.hapd->port();

    // Prime the families (cold, then warm solves); not timed.
    ReplayCheck replay;
    Tally prime_tally;
    const std::vector<Request> primes = gen.primes();
    {
        const std::vector<Outcome> out = drive(d.clients, 1, port, primes, 0.0, 1000000);
        for (std::size_t i = 0; i < primes.size(); ++i) replay.add(primes[i], out[i], prime_tally);
    }
    rep.check("hapd.priming_ok", prime_tally.failed == 0,
              std::to_string(primes.size()) + " primed keys");

    // Fixed-rate open loop: p50 / p99 from due time.
    const std::size_t n_fixed =
        static_cast<std::size_t>(std::lround(kRate * std::max(1.0, 0.5 * cfg.seconds)));
    const std::vector<Request> fixed = gen.phase(n_fixed);
    hap::obs::registry().reset();
    std::vector<Outcome> fixed_out;
    {
        const Span span("bench.pass");
        fixed_out = drive(d.clients, conns, port, fixed, kRate, 0);
    }
    const hap::obs::MetricsSnapshot fixed_snap = hap::obs::registry().snapshot();
    const Json fixed_counters = scrape(d.clients.front());
    for (int i = 0; i < kSetupReps; ++i) {
        Daemon extra = timed_start();
        stop_daemon(extra);
    }

    Tally tally;
    std::vector<double> lat_ms;
    std::vector<double> lag_ms;
    std::size_t backlog_end = 0;
    const double schedule_end = static_cast<double>(n_fixed) / kRate;
    for (std::size_t i = 0; i < fixed.size(); ++i) {
        const Outcome& o = fixed_out[i];
        replay.add(fixed[i], o, tally);
        lat_ms.push_back((o.done_s - o.due_s) * 1e3);
        lag_ms.push_back((o.sent_s - o.due_s) * 1e3);
        if (o.due_s < schedule_end && o.sent_s > schedule_end) ++backlog_end;
    }

    // Closed loop over the first kClosedConns connections: capacity on the
    // same mix. Fewer solves at once than vCPUs keeps it a measure of the
    // service rather than of the host's other tenants.
    const std::size_t closed_conns = std::min(conns, kClosedConns);
    const std::vector<Request> closed = gen.phase(kClosedRequests, closed_conns);
    const std::int64_t c0 = now_ns();
    const std::vector<Outcome> closed_out =
        drive(d.clients, closed_conns, port, closed, 0.0, 2000000);
    const double closed_s = static_cast<double>(now_ns() - c0) * 1e-9;
    for (std::size_t i = 0; i < closed.size(); ++i) replay.add(closed[i], closed_out[i], tally);

    rep.attempt(tally.sent, tally.failed);
    rep.e2e("setup_s", median(setup), "s", setup.size());
    rep.e2e("throughput", static_cast<double>(closed.size()) / closed_s, "1/s", closed.size());
    rep.e2e("p50_ms", quantile(lat_ms, 0.5), "ms", lat_ms.size());
    rep.e2e("p99_ms", quantile(lat_ms, 0.99), "ms", lat_ms.size());
    rep.note("throughput", "max_rps: closed-loop requests/s over " + std::to_string(closed_conns) +
                               " connections");
    rep.note("p50_ms", "request latency from due time at " + std::to_string(kRate) +
                           " requests/s offered, open loop");

    std::size_t planned_hits = 0;
    for (const Request& r : fixed) planned_hits += r.hit ? 1 : 0;
    rep.note("hit_share", std::to_string(static_cast<double>(planned_hits) /
                                         static_cast<double>(fixed.size())));
    rep.ledger("hapd.requests.prime", primes.size());
    rep.ledger("hapd.requests.fixed", fixed.size());
    rep.ledger("hapd.requests.fixed_hits", planned_hits);
    rep.ledger("hapd.requests.closed", closed.size());

    const std::uint64_t hits = counter(fixed_counters, "hapd.cache.hits");
    const std::uint64_t misses = counter(fixed_counters, "hapd.cache.misses");
    rep.check("hapd.hits_as_planned", hits == planned_hits && misses == fixed.size() - planned_hits,
              std::to_string(hits) + " hits / " + std::to_string(misses) + " misses");
    rep.check("hapd.no_failed_requests", tally.failed == 0,
              std::to_string(tally.failed) + " of " + std::to_string(tally.sent) + " failed");

    // Trace-only: idle hit round trip, rate ladder, one traced closed pass.
    double rtt_us = 0.0;
    std::vector<std::string> ladder_lines;
    double ladder_max = 0.0;
    double traced_s = 0.0;
    if (cfg.trace) {
        std::vector<double> rtt;
        for (std::size_t i = 0; i < 200; ++i) {
            const Request& r = primes[i % primes.size()];
            const std::string body = hap::service::build_solve_request(r.spec, "rtt");
            const std::int64_t t0 = now_ns();
            const std::string reply = d.clients.front().call(body);
            rtt.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        }
        rtt_us = median(rtt);

        for (std::size_t step = 0; step < kLadder.size(); ++step) {
            const double rate = kLadder[step];
            const std::vector<Request> reqs =
                gen.phase(static_cast<std::size_t>(rate * kLadderStepS));
            const std::vector<Outcome> out =
                drive(d.clients, conns, port, reqs, rate, 3000000 + step * 100000);
            std::vector<double> ms;
            std::size_t behind = 0;
            Tally t;
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                replay.add(reqs[i], out[i], t);
                ms.push_back((out[i].done_s - out[i].due_s) * 1e3);
                if (out[i].sent_s > kLadderStepS) ++behind;
            }
            const double p99 = quantile(ms, 0.99);
            const bool meets = t.failed == 0 && p99 <= kP99LimitMs && behind <= conns;
            if (meets) ladder_max = rate;
            rep.ledger("hapd.requests.ladder." + std::to_string(static_cast<int>(rate)), reqs.size());
            char line[160];
            std::snprintf(line, sizeof(line), "ladder %6.0f rps: %5zu requests p99 %9.2f ms, %zu behind at end, %s",
                          rate, reqs.size(), p99, behind, meets ? "meets limit" : "misses limit");
            ladder_lines.push_back(line);
            if (!meets) break;
        }

        Tracer::get().set_on(true);
        const std::vector<Request> again = gen.phase(kClosedRequests, closed_conns);
        {
            const Span span("bench.pass");
            const std::int64_t t0 = now_ns();
            const std::vector<Outcome> out =
                drive(d.clients, closed_conns, port, again, 0.0, 4000000);
            traced_s = static_cast<double>(now_ns() - t0) * 1e-9;
            Tally t;
            for (std::size_t i = 0; i < again.size(); ++i) replay.add(again[i], out[i], t);
        }
        Tracer::get().set_on(false);
    }

    rep.check("hapd.replays_byte_identical", replay.mismatches() == 0,
              std::to_string(replay.repeats()) + " repeats, " +
                  std::to_string(replay.mismatches()) + " differ");
    const std::size_t final_size = d.hapd->cache().size();
    stop_daemon(d);

    // A seeded sample of the fixed phase's misses, re-solved cold.
    hap::sim::RandomStream pick = hap::sim::RandomStream::substream(
        cfg.seed, 0, hap::sim::component_id("perfbench.hapd.check"));
    std::vector<const Request*> missed;
    for (const Request& r : fixed)
        if (!r.hit) missed.push_back(&r);
    hap::core::Solution0State probe_state;
    std::size_t checked = 0;
    for (std::size_t k = 0; k < kCheckedMisses && !missed.empty(); ++k) {
        const Request& r = *missed[pick.below(missed.size())];
        const std::string* served = replay.first(r.key);
        if (served == nullptr) {
            rep.check("hapd.misses_match_cold_solve", false, "no ok reply for " + r.key);
            continue;
        }
        const std::string err = check_cold(r, *served, &probe_state);
        rep.check("hapd.misses_match_cold_solve", err.empty(), err.empty()
                      ? "within 1e-6 relative"
                      : r.key + ": " + err);
        ++checked;
    }
    rep.ledger("hapd.misses_checked", checked);

    for (const std::string& line : ladder_lines) std::printf("%s\n", line.c_str());
    if (!cfg.trace) return;

    // Miss-path cache costs on a cache of the run's final size, on disk.
    {
        const std::string dir = cfg.workdir + "/hapd-probe";
        fresh_dir(dir);
        hap::service::PointCache cache(dir + "/cache.ckpt");
        const std::vector<MixFamily> fams = mix_families();
        std::vector<double> insert_ms;
        for (std::size_t i = 0; i < final_size; ++i) {
            const ModelSpec spec = mix_spec(fams[i % fams.size()],
                                            0.002 + 0.001 * static_cast<double>(i) /
                                                        static_cast<double>(final_size));
            hap::service::CachedPoint cp;
            cp.key = hap::service::solve_key(spec);
            cp.family = hap::service::solve_family(spec);
            cp.coord = spec.lambda;
            cp.kind = "solve";
            cp.quality = "ok";
            cp.result = Json::object();
            cp.result.set("mean_delay", Json::number(spec.lambda));
            cp.state = probe_state;
            const Span span("service.PointCache.insert");
            const std::int64_t t0 = now_ns();
            cache.insert(std::move(cp));
            insert_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
        }
        std::vector<double> nearest_us;
        for (std::size_t i = 0; i < 100; ++i) {
            const ModelSpec spec = mix_spec(fams[i % fams.size()], 0.0025);
            const std::string family = hap::service::solve_family(spec);
            const Span span("service.PointCache.nearest");
            const std::int64_t t0 = now_ns();
            const auto near = cache.nearest(family, 0.002 + 1e-5 * static_cast<double>(i));
            nearest_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
            if (!near) throw std::runtime_error("probe cache has no neighbour");
        }
        rep.layer("service.cache.insert_ms", median(insert_ms), insert_ms.size());
        rep.layer("service.cache.nearest_us", median(nearest_us), nearest_us.size());
        std::filesystem::remove_all(dir);
    }

    const auto* req_h = histogram(fixed_snap, "hapd.latency.request");
    const auto* sweep_h = histogram(fixed_snap, "hapd.latency.sweep");
    if (req_h != nullptr) {
        rep.layer("service.request_ms.p50", hist_quantile(*req_h, 0.5) * 1e3, req_h->count);
        rep.layer("service.request_ms.p99", hist_quantile(*req_h, 0.99) * 1e3, req_h->count);
    }
    if (sweep_h != nullptr) {
        rep.layer("service.solve_ms.p50", hist_quantile(*sweep_h, 0.5) * 1e3, sweep_h->count);
        rep.layer("service.solve_ms.p99", hist_quantile(*sweep_h, 0.99) * 1e3, sweep_h->count);
    }
    rep.layer("service.rtt_hit_us", rtt_us, 200);
    rep.layer("service.hit_ratio",
              static_cast<double>(hits) / static_cast<double>(std::max<std::uint64_t>(hits + misses, 1)));
    rep.layer("service.batch.coalesced_frac",
              static_cast<double>(counter(fixed_counters, "hapd.batch.coalesced")) /
                  static_cast<double>(std::max<std::uint64_t>(misses, 1)));
    for (const char* name : {"approx", "clamped", "shed", "deadline_exceeded"})
        rep.layer(std::string("service.overload.") + name,
                  static_cast<double>(counter(fixed_counters, std::string("hapd.overload.") + name)));
    rep.layer("service.ladder.max_rps", ladder_max);
    rep.layer("gen.lag_ms.p99", quantile(lag_ms, 0.99), lag_ms.size());
    rep.layer("gen.backlog_end", static_cast<double>(backlog_end));
    rep.layer("trace.overhead_frac", (traced_s - closed_s) / closed_s);
    rep.layer("error_rate", static_cast<double>(tally.failed) / static_cast<double>(tally.sent));
    rep.layer("degraded_rate", static_cast<double>(tally.degraded) / static_cast<double>(tally.sent));
}

}  // namespace perfbench
