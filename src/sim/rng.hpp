// Random-number streams for simulation. Each stochastic component gets its
// own stream, derived from a master seed with SplitMix64, so results are
// reproducible and components are statistically independent.
//
// Replicated experiments use the counter-based derivation substream_seed():
// a pure function of (master seed, run id, component id), so replication k
// of component "fig12.load" draws exactly the same numbers no matter how
// many threads the experiment pool has or which thread picks the job up.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>

#include "sim/neglog1m.hpp"

namespace hap::sim {

// SplitMix64 step; used to derive independent substream seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// Counter-based substream seed derivation: each input is absorbed through a
// full SplitMix64 mix, so (run_id, component_id) and (component_id, run_id)
// land in unrelated streams.
constexpr std::uint64_t substream_seed(std::uint64_t master, std::uint64_t run_id,
                                       std::uint64_t component_id) noexcept {
    std::uint64_t s = master;
    s = splitmix64(s) ^ run_id;
    s = splitmix64(s) ^ component_id;
    return splitmix64(s);
}

// FNV-1a hash of a component name, usable as the component_id above.
// Benches and experiments name their streams ("fig12.load=0.8") instead of
// hand-rolling seed arithmetic.
constexpr std::uint64_t component_id(std::string_view name) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

class RandomStream {
public:
    explicit RandomStream(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : engine_(seed) {}

    // Deterministic replication stream: identical draws for a given
    // (master, run_id, component_id) regardless of thread count or order.
    static RandomStream substream(std::uint64_t master, std::uint64_t run_id,
                                  std::uint64_t component_id) {
        return RandomStream(substream_seed(master, run_id, component_id));
    }

    // Derive a reproducible child stream; distinct calls yield distinct seeds.
    RandomStream fork() {
        std::uint64_t s = engine_();
        return RandomStream(splitmix64(s));
    }

    double uniform() { return uniform_(engine_); }  // U(0,1)
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    // Batch refill for BlockRng: out[0..n) receive exactly the doubles the
    // next n uniform() calls would have returned, in order. Kept here (not in
    // BlockRng) so the conversion goes through the one distribution object
    // whose draws define the repo's golden sequences.
    void fill_uniforms(double* out, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) out[i] = uniform_(engine_);
    }

    // Exponential with given rate (mean 1/rate).
    double exponential(double rate) {
        // Inversion keeps one draw per variate and is monotone in the
        // underlying uniform, which helps common-random-number comparisons.
        return -std::log1p(-uniform()) / rate;
    }

    bool bernoulli(double p) { return uniform() < p; }

    std::uint64_t next_u64() { return engine_(); }

    // Integer in [0, n); requires n < 2^53 so the scaled uniform stays exact.
    std::uint64_t below(std::uint64_t n) {
        return static_cast<std::uint64_t>(uniform() * static_cast<double>(n));
    }

    std::mt19937_64& engine() noexcept { return engine_; }

private:
    std::mt19937_64 engine_;
    std::uniform_real_distribution<double> uniform_{0.0, 1.0};
};

// Cache-resident block of uniforms drawn off a RandomStream.
//
// The event engines consume 2-3 uniforms per event; drawing them one at a
// time puts the Mersenne twist and the canonical conversion (with its
// integer->double divide) on the event loop's critical path. BlockRng
// refills a small buffer in one tight pass — the conversions pipeline
// instead of serializing against simulation logic — and the hot path is a
// load + pointer bump. The refill also inverts the whole block for
// exponential() in one vector pass (sim/neglog1m.hpp), which costs less
// than the scalar log1p calls it replaces even though only some of the
// slots are drawn as exponentials.
//
// Draw-sequence contract (the property every golden test leans on):
//   * uniform() returns exactly the sequence stream.uniform() would have —
//     the refill goes through the same distribution object, in order;
//   * the underlying stream is never left over-drawn: each refill snapshots
//     the engine first, and finish() rewinds to the snapshot and replays
//     only the consumed draws. After finish(), the RandomStream's state is
//     byte-identical to scalar use, so callers that keep drawing from the
//     same stream (back-to-back simulations, shared service streams) see an
//     unchanged future sequence.
//
// finish() runs from the destructor, so scoping a BlockRng over a hot loop
// is enough; the replay costs at most one block of draws, once.
class BlockRng {
public:
    static constexpr std::size_t kBlock = 512;

    explicit BlockRng(RandomStream& stream) : stream_(stream) {}
    ~BlockRng() { finish(); }
    BlockRng(const BlockRng&) = delete;
    BlockRng& operator=(const BlockRng&) = delete;

    double uniform() {
        if (pos_ == filled_) refill();
        return buf_[pos_++];
    }

    // Exponential with given rate: the same double RandomStream::exponential
    // returns, -log1p(-u)/rate, with -log1p(-u) precomputed per block.
    double exponential(double rate) {
        if (pos_ == filled_) refill();
        return nlog_[pos_++] / rate;
    }

    // Rewind the stream to the last snapshot and replay exactly the draws
    // consumed, restoring the state scalar use would have produced.
    void finish() {
        if (filled_ == 0) return;  // never refilled: stream untouched
        stream_.engine() = snapshot_;
        double sink = 0.0;
        for (std::size_t i = 0; i < pos_; ++i) sink = stream_.uniform();
        (void)sink;
        pos_ = 0;
        filled_ = 0;
    }

private:
    void refill() {
        snapshot_ = stream_.engine();
        stream_.fill_uniforms(buf_, kBlock);
        neglog1m_block(buf_, nlog_, kBlock);
        pos_ = 0;
        filled_ = kBlock;
    }

    RandomStream& stream_;
    std::mt19937_64 snapshot_;
    std::size_t pos_ = 0;
    std::size_t filled_ = 0;
    alignas(64) double buf_[kBlock];
    alignas(64) double nlog_[kBlock];  // nlog_[i] = -log1p(-buf_[i])
};

}  // namespace hap::sim
