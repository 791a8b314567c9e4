// Microbenchmarks (google-benchmark) for the hot paths: the DES calendar,
// the CTMC HAP simulator and the simulator lanes perfbench does not run,
// the exponential inversion (BlockRng's block kernel against scalar libm
// log1p), the steady-state solvers (cold, warm-started, and
// block-tridiagonal direct), the dense LU inverse under them, Solution 0's
// line sweep, and Solution 2.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/hap.hpp"
#include "core/line_sweep.hpp"
#include "markov/ctmc.hpp"
#include "numerics/matrix.hpp"
#include "queueing/queue_sim.hpp"
#include "sim/neglog1m.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "traffic/poisson.hpp"

namespace {

using namespace hap::core;

void BM_EventCalendar(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        hap::sim::Simulator des;
        std::uint64_t fired = 0;
        hap::sim::RandomStream rng(1);
        for (std::size_t i = 0; i < n; ++i)
            des.schedule(rng.uniform(), [&fired] { ++fired; });
        des.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventCalendar)->Arg(1000)->Arg(100000);

void BM_HapSimulator(benchmark::State& state) {
    const HapParams p = HapParams::paper_baseline(20.0);
    std::uint64_t seed = 1;
    for (auto _ : state) {
        hap::sim::RandomStream rng(seed++);
        HapSimOptions opts;
        opts.horizon = static_cast<double>(state.range(0));
        const auto res = simulate_hap_queue(p, rng, opts);
        benchmark::DoNotOptimize(res.delay.mean());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0) * 17);  // ~17 events per model second
}
BENCHMARK(BM_HapSimulator)->Arg(1000)->Arg(10000);

// Simulator shapes perfbench's sim_fig12 does not run, in events per
// second, each on a 5e3 warmup and one fixed stream per iteration:
//   stress_10type  simulate_hap_queue on 10 application types (a 33-entry
//                  category table), horizon 1e5;
//   gm1_hap        simulate_queue_t<HapSource, Exponential>: HapSource::next
//                  under the devirtualized G/M/1 kernel (the dispatcher
//                  cannot name HapSource), Fig. 12 load 0.8, horizon 2e5;
//   mm1_poisson    the same kernel driven by PoissonSource, horizon 4e5.
// golden_test's GoldenSimLanes pins these shapes' event counts exactly.
enum class SimLane { kStress10Type, kGm1Hap, kMm1Poisson };

void BM_SimLane(benchmark::State& state, SimLane lane) {
    HapParams ref = HapParams::paper_baseline(17.0);
    ref.user_arrival_rate *= 0.8;
    const hap::sim::Exponential service(17.0);
    std::uint64_t events = 0;
    for (auto _ : state) {
        hap::sim::RandomStream rng(1);
        double delay = 0.0;
        if (lane == SimLane::kStress10Type) {
            HapSimOptions opts;
            opts.warmup = 5e3;
            opts.horizon = opts.warmup + 1e5;
            const auto res = simulate_hap_queue(
                HapParams::homogeneous(0.0055, 0.001, 0.01, 0.01, 10, 0.1, 3, 22.0),
                rng, opts);
            events += res.events;
            delay = res.delay.mean();
        } else {
            hap::queueing::QueueSimOptions opts;
            opts.warmup = 5e3;
            hap::queueing::QueueSimResult res;
            if (lane == SimLane::kGm1Hap) {
                HapSource arrivals(ref);
                opts.horizon = opts.warmup + 2e5;
                res = hap::queueing::simulate_queue_t(arrivals, service, rng, opts);
            } else {
                hap::traffic::PoissonSource arrivals(ref.mean_message_rate());
                opts.horizon = opts.warmup + 4e5;
                res = hap::queueing::simulate_queue_t(arrivals, service, rng, opts);
            }
            events += res.events;
            delay = res.delay.mean();
        }
        benchmark::DoNotOptimize(delay);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.SetLabel(hap::sim::neglog1m_path());
}
BENCHMARK_CAPTURE(BM_SimLane, stress_10type, SimLane::kStress10Type)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimLane, gm1_hap, SimLane::kGm1Hap)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimLane, mm1_poisson, SimLane::kMm1Poisson)
    ->Unit(benchmark::kMillisecond);

// One exponential draw through BlockRng: the amortized block refill
// (uniforms plus the vector inversion of every slot) and the divide. The
// label names the inversion path this host runs ("avx512" or "libm").
void BM_BlockRngExponential(benchmark::State& state) {
    hap::sim::RandomStream stream(1);
    hap::sim::BlockRng rng(stream);
    for (auto _ : state) benchmark::DoNotOptimize(rng.exponential(17.0));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetLabel(hap::sim::neglog1m_path());
}
BENCHMARK(BM_BlockRngExponential);

// The scalar inversion BlockRng replaced: -log1p(-u) through libm on a
// block of uniforms, per value.
void BM_Log1pLibm(benchmark::State& state) {
    hap::sim::RandomStream stream(1);
    std::vector<double> u(hap::sim::BlockRng::kBlock);
    stream.fill_uniforms(u.data(), u.size());
    for (auto _ : state) {
        for (double v : u) benchmark::DoNotOptimize(-std::log1p(-v));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(u.size()));
}
BENCHMARK(BM_Log1pLibm);

// One Solution 0 line-relaxation sweep on the Fig. 12 box (21 x 51 x 301,
// mu'' = 17), alternating direction like the solver, in lattice states per
// second. The label names the kernel path ("avx2" or "scalar").
void BM_Solution0LineSweep(benchmark::State& state) {
    const HapParams p = HapParams::paper_baseline(17.0);
    const ApplicationType& app = p.apps.front();
    detail::Rates r{};
    r.dynamic_users = true;
    r.lambda = p.user_arrival_rate;
    r.mu = p.user_departure_rate;
    r.alpha = static_cast<double>(p.num_app_types()) * app.arrival_rate;
    r.mu1 = app.departure_rate;
    r.beta = app.total_message_rate();
    r.mu2 = app.messages.front().service_rate;
    const detail::Grid g = detail::make_grid(0, 20, 50, 300);
    std::vector<double> pi(g.size());
    for (std::size_t line = 0; line < g.nx * g.ny; ++line) {
        double v = 1.0;
        for (std::size_t z = 0; z < g.nz; ++z) {
            pi[line * g.nz + z] = v;
            v *= 0.9;
        }
    }
    detail::LineWorkspace ws;
    bool forward = true;
    for (auto _ : state) {
        detail::line_sweep(g, r, pi.data(), forward, ws);
        forward = !forward;
        benchmark::DoNotOptimize(pi.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(g.size()));
    state.SetLabel(detail::line_sweep_path());
}
BENCHMARK(BM_Solution0LineSweep);

void BM_SteadyStateSolve(benchmark::State& state) {
    const HapParams p = HapParams::paper_baseline(20.0);
    const ChainBounds b = ChainBounds::defaults_for(p);
    for (auto _ : state) {
        const LumpedChain chain(p, b);
        const auto res = chain.solve();
        benchmark::DoNotOptimize(res.pi.data());
    }
}
BENCHMARK(BM_SteadyStateSolve);

// The continuation engine's stationary regime: solve seeded with the
// converged distribution of a 2%-perturbed neighbor chain, the seed a sweep
// hands each point. BM_SteadyStateSolve above is the cold baseline.
void BM_SteadyStateSolveWarm(benchmark::State& state) {
    const HapParams p = HapParams::paper_baseline(20.0);
    const ChainBounds b = ChainBounds::defaults_for(p);
    HapParams q = p;
    q.user_arrival_rate *= 1.02;
    const auto seed = LumpedChain(q, b).solve();
    const LumpedChain chain(p, b);
    hap::markov::SolveOptions opts;
    opts.initial_guess = &seed.pi;
    for (auto _ : state) {
        const auto res = chain.solve(opts);
        benchmark::DoNotOptimize(res.pi.data());
    }
}
BENCHMARK(BM_SteadyStateSolveWarm);

// Exact block-tridiagonal elimination on the lumped (users, apps) chain —
// the non-iterative path solution 0 uses for its modulating marginal.
void BM_LumpedDirectSolve(benchmark::State& state) {
    const HapParams p = HapParams::paper_baseline(20.0);
    const ChainBounds b = ChainBounds::defaults_for(p);
    const LumpedChain chain(p, b);
    for (auto _ : state) {
        const auto pi = chain.solve_direct();
        benchmark::DoNotOptimize(pi.data());
    }
}
BENCHMARK(BM_LumpedDirectSolve);

// Dense LU inverse (factor, then one multi-right-hand-side solve against the
// identity): the kernel under the direct solve above (n = 51 is the Fig. 12
// box's apps dimension) and under Solution 3's matrix-geometric R.
void BM_DenseInverse(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    // Deterministic, diagonally dominant fill: well conditioned at any n.
    hap::numerics::Matrix a(n, n);
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            h = h * 6364136223846793005ULL + 1442695040888963407ULL;
            a(i, j) = static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5;
        }
        a(i, i) += static_cast<double>(n);
    }
    for (auto _ : state) {
        const hap::numerics::Matrix inv = hap::numerics::inverse(a);
        benchmark::DoNotOptimize(inv(0, 0));
    }
}
BENCHMARK(BM_DenseInverse)->Arg(51)->Arg(256);

void BM_Solution2FullAnalysis(benchmark::State& state) {
    const HapParams p = HapParams::paper_baseline(20.0);
    for (auto _ : state) {
        const Solution2 sol(p);
        const auto q = sol.solve_queue(20.0);
        benchmark::DoNotOptimize(q.mean_delay);
    }
}
BENCHMARK(BM_Solution2FullAnalysis);

void BM_Solution2ClosedFormDensity(benchmark::State& state) {
    const HapParams p = HapParams::paper_baseline(20.0);
    const Solution2 sol(p);
    double t = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sol.interarrival_density(t));
        t += 1e-4;
        if (t > 1.0) t = 0.0;
    }
}
BENCHMARK(BM_Solution2ClosedFormDensity);

void BM_QbdSolve(benchmark::State& state) {
    const HapParams p = HapParams::homogeneous(0.4, 0.2, 0.5, 0.5, 1, 2.0, 1, 10.0);
    for (auto _ : state) {
        const auto res = solve_solution3(p);
        benchmark::DoNotOptimize(res.qbd.mean_delay);
    }
}
BENCHMARK(BM_QbdSolve);

}  // namespace
