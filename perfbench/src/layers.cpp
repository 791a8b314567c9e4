// Per-layer probes shared by every traced run, each a direct call into one
// layer's public API on inputs drawn from the workload seed.
#include <atomic>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hap_chain.hpp"
#include "core/hap_params.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/pool.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

std::uint64_t digest_doubles(const std::vector<double>& values) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (double v : values) {
        unsigned char bytes[sizeof(double)];
        std::memcpy(bytes, &v, sizeof(double));
        for (unsigned char b : bytes) {
            h ^= b;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

namespace {

volatile double g_sink = 0.0;

double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

// A seeded sample of hapd_mix solve specs (the request bodies the workload
// sends), spread over its families.
std::vector<hap::service::ModelSpec> sample_specs(std::uint64_t seed, std::size_t count) {
    const std::vector<MixFamily> fams = mix_families();
    hap::sim::RandomStream rng = hap::sim::RandomStream::substream(
        seed, 0, hap::sim::component_id("perfbench.layers.specs"));
    std::vector<hap::service::ModelSpec> out;
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(mix_spec(fams[i % fams.size()], 0.002 + 0.001 * rng.uniform()));
    return out;
}

}  // namespace

void measure_shared_layers(const Config& cfg, Report& rep) {
    const Span root("bench.shared_layers");

    // sim: BlockRng draws and exponential inversion on the workload seed.
    {
        hap::sim::RandomStream stream = hap::sim::RandomStream::substream(
            cfg.seed, 0, hap::sim::component_id("perfbench.layers.rng"));
        const Span span("sim.BlockRng");
        hap::sim::BlockRng rng(stream);
        rep.layer("sim.uniform_ns", median_ns_per_op(7, 1u << 20, [&](std::size_t n) {
                      double acc = 0.0;
                      for (std::size_t i = 0; i < n; ++i) acc += rng.uniform();
                      g_sink = acc;
                  }), 7);
        rep.layer("sim.exp_ns", median_ns_per_op(7, 1u << 20, [&](std::size_t n) {
                      double acc = 0.0;
                      for (std::size_t i = 0; i < n; ++i) acc += rng.exponential(17.0);
                      g_sink = acc;
                  }), 7);
    }

    // parallel: one empty fork-join over nproc jobs, and the resident pool's
    // hand-off from submit() to the job starting on an idle worker.
    {
        const Span span("parallel.parallel_for");
        std::vector<double> fj;
        for (int i = 0; i < 201; ++i) {
            const std::int64_t t0 = now_ns();
            hap::parallel::parallel_for(cfg.threads, cfg.threads, [](std::size_t) {});
            fj.push_back(us(now_ns() - t0));
        }
        rep.layer("parallel.fork_join_us", median(fj), fj.size());
    }
    {
        const Span span("parallel.Pool.submit");
        hap::parallel::Pool pool(cfg.threads);
        std::vector<double> handoff;
        for (int i = 0; i < 201; ++i) {
            std::atomic<std::int64_t> started{0};
            const std::int64_t t0 = now_ns();
            if (!pool.submit([&started] { started.store(now_ns()); }))
                throw std::runtime_error("pool refused a job");
            while (started.load() == 0) {
            }
            handoff.push_back(us(started.load() - t0));
        }
        pool.shutdown();
        rep.layer("parallel.pool_handoff_us", median(handoff), handoff.size());
    }

    // service: protocol encode/parse and exact-key cache lookup on the
    // hapd_mix request bodies of this seed.
    {
        const std::vector<hap::service::ModelSpec> specs = sample_specs(cfg.seed, 256);
        std::vector<std::string> frames;
        std::vector<double> enc;
        {
            const Span span("service.protocol.encode");
            for (std::size_t i = 0; i < specs.size(); ++i) {
                const std::int64_t t0 = now_ns();
                const std::string body =
                    hap::service::build_solve_request(specs[i], "r" + std::to_string(i));
                frames.push_back(hap::service::encode_frame(body));
                enc.push_back(us(now_ns() - t0));
            }
        }
        std::vector<double> dec;
        {
            const Span span("service.protocol.parse");
            for (const std::string& frame : frames) {
                const std::int64_t t0 = now_ns();
                hap::service::FrameReader reader;
                reader.feed(frame);
                const std::optional<std::string> body = reader.next();
                if (!body) throw std::runtime_error("frame did not decode");
                const hap::service::Request req = hap::service::parse_request(*body);
                dec.push_back(us(now_ns() - t0));
                g_sink = req.model.lambda;
            }
        }
        rep.layer("service.protocol.encode_us", median(enc), enc.size());
        rep.layer("service.protocol.parse_us", median(dec), dec.size());

        hap::service::PointCache cache("");
        std::vector<std::string> keys;
        for (const auto& spec : specs) {
            hap::service::CachedPoint cp;
            cp.key = hap::service::solve_key(spec);
            cp.family = hap::service::solve_family(spec);
            cp.coord = spec.lambda;
            cp.kind = "solve";
            cp.quality = "ok";
            cp.result = hap::experiment::Json::object();
            cp.result.set("mean_delay", hap::experiment::Json::number(spec.lambda));
            keys.push_back(cp.key);
            cache.insert(std::move(cp));
        }
        std::vector<double> look;
        {
            const Span span("service.PointCache.lookup");
            for (const std::string& key : keys) {
                const std::int64_t t0 = now_ns();
                const auto hit = cache.lookup(key);
                look.push_back(us(now_ns() - t0));
                if (!hit) throw std::runtime_error("cache lost a key");
            }
        }
        rep.layer("service.cache.lookup_us", median(look), look.size());
    }

    // core: the exact modulating marginal (block-LU) on the analytic
    // sweep's box at the Fig. 12 operating point.
    {
        const hap::core::HapParams p = hap::core::HapParams::paper_baseline(17.0);
        hap::core::ChainBounds b;
        b.max_users = 20;
        b.max_apps_total = 50;
        const hap::core::LumpedChain chain(p, b);
        std::vector<double> ms;
        const Span span("core.LumpedChain.solve_direct");
        for (int i = 0; i < 9; ++i) {
            const std::int64_t t0 = now_ns();
            const std::vector<double> pi = chain.solve_direct();
            ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
            if (pi.empty()) throw std::runtime_error("solve_direct degenerated");
        }
        rep.layer("core.solve_direct_ms", median(ms), ms.size());
    }
}

}  // namespace perfbench
