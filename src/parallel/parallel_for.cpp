#include "parallel/parallel_for.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <system_error>
#include <thread>
#include <utility>

#include "core/thread_safety.hpp"

namespace hap::parallel {

namespace {

// Spins before a wait blocks: ~50 us of pause on a current x86 core, long
// enough to bridge the gap between two sweeps of a solve, short enough that
// an idle runtime parks at once.
constexpr int kSpins = 2048;

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

// The ONE structure pool workers mutate concurrently. Everything else in
// parallel_for is either per-worker or a std::atomic; keeping the shared
// mutable state in a single annotated sink lets clang -Wthread-safety prove
// the locking discipline instead of the comment asserting it.
struct ErrorSink {
    core::Mutex mutex;
    std::vector<JobError> errors HAP_GUARDED_BY(mutex);

    void push(std::size_t index, std::exception_ptr error) {
        const core::MutexLock lock(mutex);
        errors.push_back({index, std::move(error)});
    }

    // Called after the team has joined; taking the lock anyway costs one
    // uncontended acquire and keeps the function provable.
    std::vector<JobError> take() {
        const core::MutexLock lock(mutex);
        return std::move(errors);
    }
};

// The persistent runtime. Worker w (1-based; the lease holder is worker 0)
// waits on its own `go` signal, runs the leased team's task, and raises
// `done_`. Only the lease holder writes the members below `busy_`; a
// worker reads the task after its `go` raise, which publishes it.
class Runtime {
public:
    static Runtime& get() {
        static Runtime rt;
        return rt;
    }

    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;

    ~Runtime() {
        stop_ = true;
        for (const auto& wk : workers_) wk->go.add(1);
        for (std::thread& t : threads_) t.join();
    }

    bool try_lease() noexcept { return !busy_.exchange(true, std::memory_order_acquire); }
    void release() noexcept { busy_.store(false, std::memory_order_release); }

    // Under the lease: starts workers until there are want - 1 (at least
    // env_threads() - 1 on the first start) and returns the team size that
    // can be given.
    std::size_t reserve(std::size_t want) {
        const std::size_t target = std::max(want, workers_.empty() ? env_threads() : 1) - 1;
        while (workers_.size() < target) {
            workers_.push_back(std::make_unique<Worker>());
            Worker* slot = workers_.back().get();
            const std::size_t w = workers_.size();
            try {
                threads_.emplace_back([this, w, slot] { loop(w, *slot); });
            } catch (const std::system_error&) {
                workers_.pop_back();  // no more threads: give what exists
                break;
            }
        }
        return std::min(want, workers_.size() + 1);
    }

    void run(std::size_t team, Team::Task task, void* body) {
        task_ = task;
        body_ = body;
        done_.set(0);
        for (std::size_t w = 1; w < team; ++w) workers_[w - 1]->go.add(1);
        std::exception_ptr first;
        try {
            task(body, 0);
        } catch (...) {
            first = std::current_exception();
        }
        done_.wait_at_least(static_cast<std::uint32_t>(team - 1));
        for (std::size_t w = 1; w < team; ++w) {
            std::exception_ptr& e = workers_[w - 1]->error;
            if (e && !first) first = e;
            e = nullptr;
        }
        if (first) std::rethrow_exception(first);
    }

private:
    struct Worker {
        Signal go;                 // one raise per task this worker is given
        std::exception_ptr error;  // what its task threw; read after the join
    };

    Runtime() = default;

    void loop(std::size_t w, Worker& me) {
        for (std::uint32_t given = 1;; ++given) {
            me.go.wait_at_least(given);
            if (stop_) return;
            try {
                task_(body_, w);
            } catch (...) {
                me.error = std::current_exception();
            }
            done_.add(1);
        }
    }

    std::atomic<bool> busy_{false};
    Team::Task task_ = nullptr;
    void* body_ = nullptr;
    bool stop_ = false;
    Signal done_;  // workers of the current team that have finished
    std::vector<std::unique_ptr<Worker>> workers_;  // worker w at [w - 1]
    std::vector<std::thread> threads_;
};

}  // namespace

void Signal::set(std::uint32_t v) noexcept {
    value_.store(v, std::memory_order_seq_cst);
    wake();
}

void Signal::add(std::uint32_t v) noexcept {
    value_.fetch_add(v, std::memory_order_seq_cst);
    wake();
}

// A sleeper registers before its last look at the value, and a raiser
// looks for sleepers after its store; both are sequentially consistent, so
// either the raiser sees the sleeper and wakes it, or the sleeper sees the
// raised value and never blocks.
void Signal::wake() noexcept {
    if (sleepers_.load(std::memory_order_seq_cst) != 0) value_.notify_all();
}

void Signal::wait_at_least(std::uint32_t target) const noexcept {
    // Wrap-safe: counters that run for days may pass 2^32.
    const auto reached = [target](std::uint32_t v) {
        return static_cast<std::int32_t>(v - target) >= 0;
    };
    for (int i = 0; i < kSpins; ++i) {
        if (reached(value_.load(std::memory_order_acquire))) return;
        cpu_relax();
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    for (std::uint32_t v = value_.load(std::memory_order_seq_cst); !reached(v);
         v = value_.load(std::memory_order_seq_cst)) {
        value_.wait(v, std::memory_order_acquire);
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

Team::Team(std::size_t want) {
    if (want == 0) want = env_threads();
    if (want <= 1) return;
    Runtime& rt = Runtime::get();
    if (!rt.try_lease()) return;
    try {
        size_ = rt.reserve(want);
    } catch (...) {
        rt.release();  // a throwing constructor runs no destructor
        throw;
    }
    leased_ = true;
}

Team::~Team() {
    if (leased_) Runtime::get().release();
}

void Team::run_task(Task task, void* body) {
    if (size_ <= 1) {
        task(body, 0);
        return;
    }
    Runtime::get().run(size_, task, body);
}

ParallelForError::ParallelForError(std::vector<JobError> errors)
    : std::runtime_error(describe(errors)), errors_(std::move(errors)) {}

std::string ParallelForError::describe(const std::vector<JobError>& errors) {
    std::string first = "unknown error";
    if (!errors.empty() && errors.front().error) {
        try {
            std::rethrow_exception(errors.front().error);
        } catch (const std::exception& e) {
            first = e.what();
        } catch (...) {
        }
    }
    std::string msg = "parallel_for: " + std::to_string(errors.size()) +
                      " job(s) failed; first (job " +
                      std::to_string(errors.empty() ? 0 : errors.front().index) +
                      "): " + first;
    return msg;
}

std::size_t env_threads() {
    if (const char* env = std::getenv("HAP_BENCH_THREADS")) {  // haplint: allow(env-after-spawn) phase-0: read at pool construction, before workers spawn
        const long v = std::atol(env);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    if (threads == 0) threads = env_threads();
    ErrorSink sink;
    // On a team of one the counter hands out 0, 1, ..., n - 1 in order and
    // every job still runs after one throws, so failure sets are identical
    // at any team size.
    std::atomic<std::size_t> next{0};
    auto work = [&](std::size_t) {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) return;
            try {
                fn(i);
            } catch (...) {
                sink.push(i, std::current_exception());
            }
        }
    };
    Team team(std::min(threads, n));
    team.run(work);
    std::vector<JobError> errors = sink.take();
    // Capture order is schedule-dependent; job-index order is not.
    std::sort(errors.begin(), errors.end(),
              [](const JobError& a, const JobError& b) { return a.index < b.index; });
    if (!errors.empty()) throw ParallelForError(std::move(errors));
}

}  // namespace hap::parallel
