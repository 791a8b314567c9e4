// Event-engine overhaul tests: ring-buffer FIFO semantics, the BlockRng
// draw-sequence contract, the block exponential inversion's bit-for-bit
// agreement with std::log1p, devirtualized-vs-virtual kernel identity, the
// "events executed" counter semantics, and the HapSource incremental-rate
// regression against a per-iteration re-derivation of the historical code.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/hap_params.hpp"
#include "core/hap_sim.hpp"
#include "queueing/queue_sim.hpp"
#include "sim/distributions.hpp"
#include "sim/neglog1m.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/rng.hpp"
#include "traffic/onoff.hpp"
#include "traffic/poisson.hpp"

namespace {

using hap::core::HapParams;
using hap::core::HapSimOptions;
using hap::core::HapSource;
using hap::core::simulate_hap_queue;
using hap::queueing::QueueSimOptions;
using hap::queueing::QueueSimResult;
using hap::queueing::simulate_queue;
using hap::queueing::simulate_queue_t;
using hap::sim::BlockRng;
using hap::sim::Exponential;
using hap::sim::RandomStream;
using hap::sim::RingBuffer;

// --------------------------------------------------------------------------
// RingBuffer

TEST(RingBuffer, FifoOrder) {
    RingBuffer<int> rb(4);
    EXPECT_TRUE(rb.empty());
    for (int i = 0; i < 4; ++i) rb.push_back(i);
    EXPECT_EQ(rb.size(), 4u);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(rb.pop_front(), i);
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapAroundKeepsOrder) {
    // Steady-state churn well past the capacity: the head walks around the
    // ring many times while the occupancy stays below the growth threshold.
    RingBuffer<int> rb(4);
    EXPECT_EQ(rb.capacity(), 4u);
    int next_in = 0;
    int next_out = 0;
    for (int round = 0; round < 100; ++round) {
        while (rb.size() < 3) rb.push_back(next_in++);
        while (!rb.empty()) EXPECT_EQ(rb.pop_front(), next_out++);
    }
    EXPECT_EQ(rb.capacity(), 4u);  // never grew
}

TEST(RingBuffer, GrowthRelinearizesLiveRange) {
    RingBuffer<int> rb(4);
    // Offset the head so growth must re-linearize a wrapped live range.
    rb.push_back(-1);
    rb.push_back(-2);
    EXPECT_EQ(rb.pop_front(), -1);
    EXPECT_EQ(rb.pop_front(), -2);
    for (int i = 0; i < 1000; ++i) rb.push_back(i);
    EXPECT_GE(rb.capacity(), 1024u);
    EXPECT_EQ(rb.size(), 1000u);
    EXPECT_EQ(rb.front(), 0);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(rb.pop_front(), i);
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, CapacityRoundsUpToPowerOfTwo) {
    EXPECT_EQ(RingBuffer<int>(1).capacity(), 1u);
    EXPECT_EQ(RingBuffer<int>(3).capacity(), 4u);
    EXPECT_EQ(RingBuffer<int>(64).capacity(), 64u);
    EXPECT_EQ(RingBuffer<int>(65).capacity(), 128u);
}

TEST(RingBuffer, FrontSlotIsDefinedWhenEmpty) {
    // front_slot() backs the engines' branchless head-rate select: slots are
    // value-initialized, so the read is defined (and zero) on a fresh ring.
    RingBuffer<double> rb(4);
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.front_slot(), 0.0);
}

TEST(RingBuffer, ClearResets) {
    RingBuffer<int> rb(4);
    rb.push_back(7);
    rb.push_back(8);
    rb.clear();
    EXPECT_TRUE(rb.empty());
    rb.push_back(9);
    EXPECT_EQ(rb.pop_front(), 9);
}

// --------------------------------------------------------------------------
// BlockRng draw-sequence contract

TEST(BlockRng, MatchesScalarDrawSequence) {
    RandomStream blocked(12345);
    RandomStream scalar(12345);
    BlockRng blk(blocked);
    // Mixed uniform/exponential pattern spanning several refills.
    for (int i = 0; i < 3000; ++i) {
        if (i % 3 == 0) {
            EXPECT_EQ(blk.exponential(2.5), scalar.exponential(2.5)) << "draw " << i;
        } else {
            EXPECT_EQ(blk.uniform(), scalar.uniform()) << "draw " << i;
        }
    }

    // Exponential-heavy pattern (the precomputed inversion's hot case) over
    // many refills and rates spanning nine decades; compared bit for bit.
    const double rates[] = {1e-3, 0.5, 2.5, 17.0, 1e6};
    RandomStream heavy_blocked(777);
    RandomStream heavy_scalar(777);
    {
        BlockRng heavy(heavy_blocked);
        for (int i = 0; i < 40 * static_cast<int>(BlockRng::kBlock) + 77; ++i) {
            if (i % 5 == 4) {
                ASSERT_EQ(heavy.uniform(), heavy_scalar.uniform()) << "draw " << i;
            } else {
                const double rate = rates[static_cast<std::size_t>(i) % 5];
                ASSERT_EQ(std::bit_cast<std::uint64_t>(heavy.exponential(rate)),
                          std::bit_cast<std::uint64_t>(heavy_scalar.exponential(rate)))
                    << "draw " << i << " rate " << rate;
            }
        }
    }  // finish() after a partial block: the stream must match scalar use
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(heavy_blocked.exponential(17.0), heavy_scalar.exponential(17.0));
    }
}

TEST(BlockRng, FinishRestoresStreamStateExactly) {
    RandomStream blocked(99);
    RandomStream scalar(99);
    {
        BlockRng blk(blocked);
        // Consume a count that is not a multiple of the block size, so the
        // stream is over-drawn by a partial block until finish().
        for (int i = 0; i < 700; ++i) EXPECT_EQ(blk.uniform(), scalar.uniform());
    }  // destructor runs finish()
    // The streams must now agree draw-for-draw: no lost or extra draws.
    for (int i = 0; i < 2000; ++i) EXPECT_EQ(blocked.uniform(), scalar.uniform());
}

TEST(BlockRng, UnusedBlockLeavesStreamUntouched) {
    RandomStream blocked(7);
    RandomStream scalar(7);
    { BlockRng blk(blocked); }  // never drew: stream must be untouched
    for (int i = 0; i < 100; ++i) EXPECT_EQ(blocked.uniform(), scalar.uniform());
}

// --------------------------------------------------------------------------
// Block exponential inversion: neglog1m_block == -std::log1p(-u), bit for bit

using Neglog1mFn = void (*)(const double*, double*, std::size_t);

// Runs fn over u and counts outputs whose bits differ from -std::log1p(-u),
// reporting the first few with their inputs in hex.
std::size_t count_libm_mismatches(Neglog1mFn fn, const std::vector<double>& u) {
    std::vector<double> out(u.size());
    fn(u.data(), out.data(), u.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < u.size(); ++i) {
        const double want = -std::log1p(-u[i]);
        if (std::bit_cast<std::uint64_t>(out[i]) == std::bit_cast<std::uint64_t>(want)) continue;
        if (bad++ < 5) {
            char line[160];
            std::snprintf(line, sizeof(line), "u=%a: got %a, libm %a", u[i], out[i], want);
            ADD_FAILURE() << line;
        }
    }
    return bad;
}

double from_words(std::uint64_t hi, std::uint64_t lo) {
    return std::bit_cast<double>(hi << 32 | lo);
}

// The kernel's knife edges, as uniforms u (the kernel sees x = -u).
std::vector<double> targeted_uniforms() {
    std::vector<double> u = {0.0, std::nextafter(1.0, 0.0), 0.5, 0.25};
    // Subnormal and tiny u, across the |x| < 2^-54 and |x| < 2^-29 cutoffs.
    for (std::uint64_t k = 1; k <= 64; ++k) u.push_back(std::bit_cast<double>(k));
    u.push_back(std::numeric_limits<double>::min());
    for (double edge : {0x1p-54, 0x1p-29}) {
        double below = edge;
        double above = edge;
        for (int k = 0; k < 64; ++k) {
            u.push_back(below);
            u.push_back(above);
            below = std::nextafter(below, 0.0);
            above = std::nextafter(above, 1.0);
        }
    }
    // Every -u high word 0xbfd2bec3 / 0xbfd2bec4 (the k = 0 cutoff): both
    // ends of the low word and a seeded spread across it.
    RandomStream lows(0xbfd2bec3);
    for (std::uint64_t hi : {0x3fd2bec3ULL, 0x3fd2bec4ULL}) {
        for (std::uint64_t lo = 0; lo < 4096; ++lo) {
            u.push_back(from_words(hi, lo));
            u.push_back(from_words(hi, 0xffffffffULL - lo));
        }
        for (int k = 0; k < 65536; ++k) u.push_back(from_words(hi, lows.next_u64() & 0xffffffffULL));
    }
    // 1 - u around the 0x6a09e normalization switch, for every binade of
    // 1 - u a uniform can reach.
    for (std::uint64_t e = 1; e <= 53; ++e) {
        for (std::uint64_t hm = 0x6a09bULL; hm <= 0x6a0a1ULL; ++hm) {
            for (std::uint64_t lo : {0x0ULL, 0x1ULL, 0x667f3bcdULL, 0xfffffffeULL, 0xffffffffULL})
                u.push_back(1.0 - from_words((1023 - e) << 20 | hm, lo));
        }
    }
    // 1 - u at and next to powers of two (u = 0.5, 0.75, 0.875, ...): the
    // reduced argument's hu == 0 lanes.
    for (int e = 1; e <= 53; ++e) {
        const double at = 1.0 - std::ldexp(1.0, -e);
        double below = at;
        double above = at;
        for (int k = 0; k < 8; ++k) {
            u.push_back(below);
            if (above < 1.0) u.push_back(above);
            below = std::nextafter(below, 0.0);
            above = std::nextafter(above, 1.0);
        }
    }
    return u;
}

TEST(Neglog1m, MatchesLibmOnTargetedInputs) {
    const std::vector<double> u = targeted_uniforms();
    EXPECT_EQ(count_libm_mismatches(hap::sim::neglog1m_block, u), 0u)
        << "active path " << hap::sim::neglog1m_path();
    EXPECT_EQ(count_libm_mismatches(hap::sim::detail::neglog1m_block_libm, u), 0u);
}

TEST(Neglog1m, MatchesLibmOnSeededUniforms) {
    // 10^7 canonical uniforms, in BlockRng-sized chunks, on the active path
    // (the kernel itself whenever the probe admitted it).
    RandomStream stream(hap::sim::substream_seed(12, 0, hap::sim::component_id("neglog1m.diff")));
    std::vector<double> u(8 * BlockRng::kBlock);
    std::size_t bad = 0;
    for (std::size_t done = 0; done < 10'000'000; done += u.size()) {
        stream.fill_uniforms(u.data(), u.size());
        bad += count_libm_mismatches(hap::sim::neglog1m_block, u);
    }
    EXPECT_EQ(bad, 0u) << "active path " << hap::sim::neglog1m_path();
}

TEST(Neglog1m, RawKernelMatchesLibmWhenAdmitted) {
    // The probe only admits the kernel if it agrees with this libm; when it
    // does, the ungated kernel must agree on the targeted set too, including
    // block lengths that leave a scalar tail.
    const double half = 0.5;
    double out = 0.0;
    if (!hap::sim::detail::neglog1m_block_avx512(&half, &out, 1)) {
        EXPECT_EQ(std::string(hap::sim::neglog1m_path()), "libm");
        GTEST_SKIP() << "no AVX-512F/DQ kernel in this build; the libm path is active";
    }
#if defined(__GLIBC__) && __GLIBC__ == 2 && __GLIBC_MINOR__ == 36
    // The kernel transcribes this glibc's log1p (its FMA ifunc variant, the
    // one every AVX-512 CPU resolves), so here a rejection is a kernel bug.
    ASSERT_EQ(std::string(hap::sim::neglog1m_path()), "avx512");
#endif
    if (std::string(hap::sim::neglog1m_path()) != "avx512")
        GTEST_SKIP() << "kernel compiled in but rejected by the probe (foreign libm)";
    const Neglog1mFn raw = [](const double* in, double* o, std::size_t n) {
        (void)hap::sim::detail::neglog1m_block_avx512(in, o, n);
    };
    const std::vector<double> u = targeted_uniforms();
    EXPECT_EQ(count_libm_mismatches(raw, u), 0u);
    for (std::size_t n : {1u, 7u, 9u, 13u}) {
        const std::vector<double> tail(u.end() - static_cast<std::ptrdiff_t>(n), u.end());
        EXPECT_EQ(count_libm_mismatches(raw, tail), 0u) << "n=" << n;
    }
}

// --------------------------------------------------------------------------
// Devirtualized vs virtual kernel identity

void expect_identical(const QueueSimResult& a, const QueueSimResult& b) {
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.departures, b.departures);
    EXPECT_EQ(a.losses, b.losses);
    EXPECT_EQ(a.delay.count(), b.delay.count());
    EXPECT_EQ(a.delay.mean(), b.delay.mean());
    EXPECT_EQ(a.delay.variance(), b.delay.variance());
    EXPECT_EQ(a.wait.mean(), b.wait.mean());
    EXPECT_EQ(a.number.mean(), b.number.mean());
    EXPECT_EQ(a.number.variance(), b.number.variance());
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.busy.mountains(), b.busy.mountains());
    EXPECT_EQ(a.busy.busy_lengths().mean(), b.busy.busy_lengths().mean());
}

TEST(QueueSimDevirt, PoissonExponentialByteIdentical) {
    QueueSimOptions opts;
    opts.horizon = 5e4;
    opts.warmup = 1e3;
    const Exponential svc(1.25);

    hap::traffic::PoissonSource a(1.0);
    RandomStream rng_a(424242);
    // simulate_queue recognizes the concrete pair and devirtualizes.
    const QueueSimResult devirt = simulate_queue(a, svc, rng_a, opts);

    hap::traffic::PoissonSource b(1.0);
    RandomStream rng_b(424242);
    // Forcing the generic instantiation through the abstract interfaces
    // reproduces the historical virtual-dispatch loop.
    hap::traffic::ArrivalProcess& base_arr = b;
    const hap::sim::Distribution& base_svc = svc;
    const QueueSimResult virt = simulate_queue_t(base_arr, base_svc, rng_b, opts);

    expect_identical(devirt, virt);
    // And the two streams must have advanced identically.
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng_a.uniform(), rng_b.uniform());
}

TEST(QueueSimDevirt, OnOffExponentialByteIdentical) {
    QueueSimOptions opts;
    opts.horizon = 5e4;
    const Exponential svc(4.0);

    hap::traffic::OnOffSource a(0.2, 0.6, 3.0);
    RandomStream rng_a(7);
    const QueueSimResult devirt = simulate_queue(a, svc, rng_a, opts);

    hap::traffic::OnOffSource b(0.2, 0.6, 3.0);
    RandomStream rng_b(7);
    hap::traffic::ArrivalProcess& base_arr = b;
    const hap::sim::Distribution& base_svc = svc;
    const QueueSimResult virt = simulate_queue_t(base_arr, base_svc, rng_b, opts);

    expect_identical(devirt, virt);
}

TEST(QueueSimDevirt, FiniteBufferByteIdentical) {
    QueueSimOptions opts;
    opts.horizon = 2e4;
    opts.buffer_capacity = 3;
    const Exponential svc(0.9);

    hap::traffic::PoissonSource a(1.0);
    RandomStream rng_a(11);
    const QueueSimResult devirt = simulate_queue(a, svc, rng_a, opts);
    EXPECT_GT(devirt.losses, 0u);

    hap::traffic::PoissonSource b(1.0);
    RandomStream rng_b(11);
    hap::traffic::ArrivalProcess& base_arr = b;
    const hap::sim::Distribution& base_svc = svc;
    expect_identical(devirt, simulate_queue_t(base_arr, base_svc, rng_b, opts));
}

// --------------------------------------------------------------------------
// "Events executed" counter semantics (both engines, aligned)

TEST(EventSemantics, QueueSimCountsOnlyExecutedEvents) {
    // With no warmup and an infinite buffer every executed event is exactly
    // one counted arrival or departure, so the counter decomposes with no
    // +1 from the final (unexecuted) horizon-crossing draw.
    QueueSimOptions opts;
    opts.horizon = 1e3;
    const Exponential svc(1.5);
    hap::traffic::PoissonSource src(1.0);
    RandomStream rng(3);
    const QueueSimResult res = simulate_queue(src, svc, rng, opts);
    EXPECT_GT(res.events, 0u);
    EXPECT_EQ(res.events, res.arrivals + res.departures);
}

TEST(EventSemantics, HapSimCountsOnlyExecutedEvents) {
    // Same decomposition for the HAP engine: message arrivals + service
    // completions + population changes (counted via the hook) must equal
    // `events` exactly. The historical loop reported one extra event — the
    // draw that first crossed the horizon.
    HapSimOptions opts;
    opts.horizon = 2e3;
    std::uint64_t pop_changes = 0;
    opts.on_population_change = [&](double, std::uint64_t, std::uint64_t) {
        ++pop_changes;
    };
    const HapParams params = HapParams::paper_baseline(17.0);
    RandomStream rng(5);
    const auto res = simulate_hap_queue(params, rng, opts);
    EXPECT_GT(res.events, 0u);
    EXPECT_EQ(res.events, res.arrivals + res.departures + pop_changes);
}

// --------------------------------------------------------------------------
// HapSource incremental bookkeeping regression

// Per-iteration re-derivation of the historical HapSource::next: re-sums the
// app population and rebuilds every aggregate rate on each loop pass. The
// production class keeps these incrementally; the sequences must agree
// bit-for-bit.
class ReferenceHapSource {
public:
    explicit ReferenceHapSource(HapParams params) : params_(std::move(params)) {
        users_ = params_.permanent_users > 0
                     ? params_.permanent_users
                     : static_cast<std::uint64_t>(params_.mean_users() + 0.5);
        apps_.assign(params_.num_app_types(), 0);
        for (std::size_t i = 0; i < apps_.size(); ++i) {
            const auto& a = params_.apps[i];
            apps_[i] = static_cast<std::uint64_t>(
                static_cast<double>(users_) * a.arrival_rate / a.departure_rate +
                0.5);
        }
    }

    double next(RandomStream& rng) {
        const bool dynamic_users = params_.permanent_users == 0;
        const std::size_t l = params_.num_app_types();
        for (;;) {
            const double xd = static_cast<double>(users_);
            std::uint64_t total_apps = 0;
            for (std::uint64_t y : apps_) total_apps += y;

            const bool user_ok = dynamic_users &&
                                 (params_.max_users == 0 || users_ < params_.max_users);
            const bool app_ok =
                params_.max_apps == 0 || total_apps < params_.max_apps;

            double total = 0.0;
            const double r_user_arr = user_ok ? params_.user_arrival_rate : 0.0;
            const double r_user_dep =
                dynamic_users ? xd * params_.user_departure_rate : 0.0;
            total += r_user_arr + r_user_dep;
            double msg_total = 0.0;
            for (std::size_t i = 0; i < l; ++i) {
                const auto& a = params_.apps[i];
                const double yd = static_cast<double>(apps_[i]);
                total += (app_ok ? xd * a.arrival_rate : 0.0) + yd * a.departure_rate;
                msg_total += yd * a.total_message_rate();
            }
            total += msg_total;
            if (total <= 0.0) return std::numeric_limits<double>::infinity();

            time_ += rng.exponential(total);
            double u = rng.uniform() * total;

            if (u < msg_total) return time_;
            u -= msg_total;
            if (u < r_user_arr) {
                ++users_;
                continue;
            }
            u -= r_user_arr;
            if (u < r_user_dep) {
                --users_;
                continue;
            }
            u -= r_user_dep;
            for (std::size_t i = 0; i < l; ++i) {
                const auto& a = params_.apps[i];
                const double arr = app_ok ? xd * a.arrival_rate : 0.0;
                if (u < arr) {
                    ++apps_[i];
                    break;
                }
                u -= arr;
                const double dep = static_cast<double>(apps_[i]) * a.departure_rate;
                if (u < dep) {
                    --apps_[i];
                    break;
                }
                u -= dep;
            }
        }
    }

private:
    HapParams params_;
    double time_ = 0.0;
    std::uint64_t users_ = 0;
    std::vector<std::uint64_t> apps_;
};

TEST(HapSourceIncremental, LongDrawSequenceMatchesReference) {
    const HapParams params = HapParams::paper_baseline(17.0);
    HapSource fast(params);
    ReferenceHapSource ref(params);
    RandomStream rng_fast(20260809);
    RandomStream rng_ref(20260809);
    for (int i = 0; i < 200000; ++i) {
        const double tf = fast.next(rng_fast);
        const double tr = ref.next(rng_ref);
        ASSERT_EQ(tf, tr) << "message " << i;
    }
}

TEST(HapSourceIncremental, ResetRestartsSequence) {
    const HapParams params = HapParams::paper_baseline(20.0);
    HapSource src(params);
    RandomStream a(1);
    std::vector<double> first;
    for (int i = 0; i < 1000; ++i) first.push_back(src.next(a));
    src.reset();
    RandomStream b(1);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(src.next(b), first[static_cast<std::size_t>(i)]);
}

// Bounded-population configuration exercises the cached app_ok_/user-bound
// branches of the incremental path.
TEST(HapSourceIncremental, BoundedPopulationMatchesReference) {
    HapParams params = HapParams::paper_baseline(17.0);
    params.max_users = 20;
    params.max_apps = 60;
    HapSource fast(params);
    ReferenceHapSource ref(params);
    RandomStream rng_fast(77);
    RandomStream rng_ref(77);
    for (int i = 0; i < 50000; ++i) ASSERT_EQ(fast.next(rng_fast), ref.next(rng_ref)) << i;
}

}  // namespace
