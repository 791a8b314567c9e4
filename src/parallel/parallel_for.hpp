// Bottom-layer deterministic work-sharing primitives, on one persistent
// worker runtime.
//
// The runtime is a set of worker threads that start on first use (sized
// from env_threads(), grown to the largest team ever asked for) and then
// park between uses. It is the ONLY place in the tree that spawns threads
// for batch work: parallel_for, the replication engine
// (experiment::ExperimentRunner), the graph-colored Gauss-Seidel solver
// (markov) and Solution 0's line sweep (core) all run on it, so the repo's
// determinism contract — results bit-identical at any thread count — has a
// single concurrency primitive to reason about. A team is leased by one
// caller at a time: a call made while the runtime is leased, from a worker
// or from anywhere else, runs inline on its caller, which every user must
// (and does) tolerate because its results do not depend on the worker count.
//
// This module sits BELOW markov/core/experiment and depends on nothing but
// the standard library, so solvers can parallelize without inverting the
// dependency layering.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace hap::parallel {

// Worker count: HAP_BENCH_THREADS if set and positive, else the hardware
// concurrency (at least 1).
std::size_t env_threads();

// A counter that one thread raises and others wait for. Waits spin briefly,
// then block in std::atomic::wait; a raise pays for a wake-up only when a
// waiter has blocked. Raises are release stores and a satisfied wait
// acquires them, so everything written before a raise is visible after the
// wait that sees it.
class alignas(64) Signal {
public:
    void set(std::uint32_t v) noexcept;
    void add(std::uint32_t v) noexcept;
    void wait_at_least(std::uint32_t target) const noexcept;

private:
    void wake() noexcept;

    std::atomic<std::uint32_t> value_{0};
    mutable std::atomic<std::uint32_t> sleepers_{0};
};

// A lease on up to `want` workers of the runtime (0 = env_threads()), the
// caller counted as worker 0. size() is 1 — run() calls body(0) inline —
// when want <= 1 or the runtime is already leased.
class Team {
public:
    explicit Team(std::size_t want);
    ~Team();
    Team(const Team&) = delete;
    Team& operator=(const Team&) = delete;

    std::size_t size() const noexcept { return size_; }

    // Calls body(w) for every w in [0, size()) at once, w = 0 on the
    // caller, and returns when all have returned. If bodies throw, the
    // exception of the lowest-numbered one is rethrown after the join.
    template <class Body>
    void run(Body& body) {
        run_task([](void* b, std::size_t w) { (*static_cast<Body*>(b))(w); }, &body);
    }

    using Task = void (*)(void* body, std::size_t worker);

private:
    void run_task(Task task, void* body);

    std::size_t size_ = 1;
    bool leased_ = false;
};

// One failed job of a parallel_for: the job index and the exception it threw.
struct JobError {
    std::size_t index = 0;
    std::exception_ptr error;
};

// Thrown by parallel_for when jobs fail. EVERY failure is kept, ordered by
// job index (deterministic for any thread count); what() reports the count
// and the first failure's text. Derives from std::runtime_error so callers
// that only ever expected "the one exception" still catch it.
class ParallelForError : public std::runtime_error {
public:
    explicit ParallelForError(std::vector<JobError> errors);

    const std::vector<JobError>& errors() const noexcept { return errors_; }

private:
    static std::string describe(const std::vector<JobError>& errors);

    std::vector<JobError> errors_;
};

// Run fn(i) for every i in [0, n) on a team of min(threads, n) workers;
// threads == 0 picks env_threads(). Jobs are claimed from an atomic counter
// (work stealing), so the ASSIGNMENT of jobs to threads is
// schedule-dependent — callers that need determinism must make each job's
// EFFECT independent of which thread runs it (disjoint output slots,
// order-free reductions). Every job runs exactly once, a throwing job never
// stops the others, and the failures are reported in job-index order.
void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace hap::parallel
