#include "core/hap_sim.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "sim/ring_buffer.hpp"

namespace hap::core {

namespace {

// Flat, cache-friendly image of the parameter hierarchy: per-type scalars in
// parallel arrays (the rate rebuild walks them in index order) and the
// message-type lattice flattened behind offsets, so the hot loop never
// chases nested vectors.
struct RateTable {
    std::size_t l = 0;
    std::vector<double> app_arrival;     // lambda_i (per user)
    std::vector<double> app_departure;   // mu_i (per instance)
    std::vector<double> message_rate;    // Lambda_i (per instance)
    std::vector<double> msg_cum;         // cumulative lambda_ij within type, flat
    std::vector<double> msg_service;     // mu_ij, flat, aligned with msg_cum
    std::vector<std::uint32_t> msg_off;  // type i owns [msg_off[i], msg_off[i+1])

    explicit RateTable(const HapParams& p) {
        l = p.apps.size();
        app_arrival.reserve(l);
        app_departure.reserve(l);
        message_rate.reserve(l);
        msg_off.reserve(l + 1);
        msg_off.push_back(0);
        for (const ApplicationType& a : p.apps) {
            app_arrival.push_back(a.arrival_rate);
            app_departure.push_back(a.departure_rate);
            message_rate.push_back(a.total_message_rate());
            double cum = 0.0;
            for (const MessageType& m : a.messages) {
                cum += m.arrival_rate;
                msg_cum.push_back(cum);
                msg_service.push_back(m.service_rate);
            }
            msg_off.push_back(static_cast<std::uint32_t>(msg_cum.size()));
        }
    }
};

struct QueuedMsg {
    double arrival;
    double service_rate;
    std::uint32_t app_type;
};

// The HAP/M/1 event engine. Three structural invariants keep every output
// byte-identical to the historical per-event-rebuild loop while removing its
// per-event costs:
//
//   * Incremental rates. The category table (fixed layout: [0] user arrival,
//     [1] user departure, [2+3i]/[3+3i]/[4+3i] app-i arrival/departure/
//     message, [2+3l] service completion) is rebuilt — with the exact
//     left-to-right reduction order of the old loop — only on population
//     events (~a few % of all events). Arrival/service events can only
//     change the service-head entry, so their total is the cached base sum
//     plus that one entry: the same float the old loop computed, because the
//     service category is the last term of the left-to-right reduction.
//   * Block RNG. Uniforms come from sim::BlockRng, which buffers draws from
//     the same distribution object in the same order and rewinds/replays the
//     stream on finish, so the consumed sequence and the stream's final
//     state both match scalar use. Each refill also inverts the whole block
//     (-log1p(-u) in one vector pass, bit for bit libm's value), so the
//     per-event exponential is a load and a divide.
//   * Phase split. The loop runs a warmup phase with every guard live, then
//     switches (once `now` passes the warmup point, i.e. every later event's
//     hold interval starts post-warmup) to a steady-state phase where warmup
//     comparisons and — when no hooks are installed — the std::function
//     checks are compiled out.
class HapEngine {
public:
    HapEngine(const HapParams& params, sim::RandomStream& rng,
              const HapSimOptions& opts, HapSimResult& res)
        : p_(params),
          opts_(opts),
          res_(res),
          rates_(params),
          brng_(rng),
          cat_(2 + 3 * params.apps.size() + 1, 0.0),
          pref_(2 + 3 * params.apps.size(), 0.0),
          apps_(params.apps.size(), 0),
          number_(res.number),
          users_tw_(res.users),
          apps_tw_(res.apps),
          busy_(res.busy) {
        l_ = rates_.l;
        svc_idx_ = 2 + 3 * l_;
        cat_size_ = svc_idx_ + 1;
        dynamic_users_ = p_.permanent_users == 0;
        cap_ = opts.buffer_capacity > 0 ? opts.buffer_capacity
                                        : std::numeric_limits<std::size_t>::max();
        record_delays_ = opts.record_delays;
        record_arrivals_ = opts.record_arrival_times;
        per_type_ = opts.per_type_stats;

        // Populate the hierarchy at its stationary mean so the warmup is
        // short. (Starting empty biases short runs: users take ~1/mu to
        // accumulate.)
        users_ = p_.permanent_users;
        if (dynamic_users_)
            users_ = static_cast<std::uint64_t>(p_.mean_users() + 0.5);
        for (std::size_t i = 0; i < l_; ++i) {
            apps_[i] = static_cast<std::uint64_t>(
                static_cast<double>(users_) * rates_.app_arrival[i] /
                    rates_.app_departure[i] +
                0.5);
            total_apps_ += apps_[i];
        }
        rebuild_base();
    }

    void run() {
        const bool hooks = static_cast<bool>(opts_.on_queue_change) ||
                           static_cast<bool>(opts_.on_population_change);
        // Warmup phase: every event whose hold interval starts pre-warmup.
        bool alive = true;
        while (alive && now_ < opts_.warmup) alive = step<false, true>();
        // Steady-state phase: warmup guards resolve statically; hook checks
        // vanish when no hooks are installed.
        if (alive) {
            if (hooks)
                while (step<true, true>()) {}
            else
                while (step<true, false>()) {}
        }
        res_.events = events_;
        res_.arrivals = arrivals_;
        res_.departures = departures_;
        res_.losses = losses_;
        res_.number = number_;
        res_.users = users_tw_;
        res_.apps = apps_tw_;
        res_.busy = busy_;
        brng_.finish();  // leave the caller's stream exactly as scalar draws would
    }

private:
    // Rebuild the non-service category entries and their left-to-right sum.
    // The expression and reduction order mirror the historical per-event
    // rebuild exactly; only the call frequency changed (population events
    // instead of every event).
    void rebuild_base() {
        const double xd = static_cast<double>(users_);
        double total = 0.0;
        const bool user_ok =
            dynamic_users_ && (p_.max_users == 0 || users_ < p_.max_users);
        total += cat_[0] = user_ok ? p_.user_arrival_rate : 0.0;
        pref_[0] = total;
        total += cat_[1] = dynamic_users_ ? xd * p_.user_departure_rate : 0.0;
        pref_[1] = total;
        app_ok_ = p_.max_apps == 0 || total_apps_ < p_.max_apps;
        for (std::size_t i = 0; i < l_; ++i) {
            const double yd = static_cast<double>(apps_[i]);
            total += cat_[2 + 3 * i] = app_ok_ ? xd * rates_.app_arrival[i] : 0.0;
            pref_[2 + 3 * i] = total;
            total += cat_[3 + 3 * i] = yd * rates_.app_departure[i];
            pref_[3 + 3 * i] = total;
            total += cat_[4 + 3 * i] = yd * rates_.message_rate[i];
            pref_[4 + 3 * i] = total;
        }
        base_sum_ = total;
        at_user_bound_ = dynamic_users_ && p_.max_users > 0 && users_ >= p_.max_users;
        at_app_bound_ = !app_ok_;
    }

    template <bool kSteady, bool kHooks>
    void queue_changed() {
        if constexpr (!kSteady)
            if (now_ < opts_.warmup) return;
        number_.update(now_, static_cast<double>(queue_.size()));
        busy_.observe(now_, queue_.size());
        if constexpr (kHooks)
            if (opts_.on_queue_change) opts_.on_queue_change(now_, queue_.size());
    }

    template <bool kSteady, bool kHooks>
    void population_changed() {
        if constexpr (!kSteady)
            if (now_ < opts_.warmup) return;
        users_tw_.update(now_, static_cast<double>(users_));
        apps_tw_.update(now_, static_cast<double>(total_apps_));
        if constexpr (kHooks)
            if (opts_.on_population_change)
                opts_.on_population_change(now_, users_, total_apps_);
    }

    // One CTMC transition. Returns false when the run is over (horizon
    // reached or frozen system). `res_.events` counts events *executed*: the
    // draw that lands past the horizon is consumed (the draw sequence is part
    // of the golden contract) but the event it would have started is not
    // simulated and not counted.
    template <bool kSteady, bool kHooks>
    bool step() {
        // The only category a non-population event can change is the
        // service head; refresh it and derive the total from the cached
        // left-to-right base sum.
        const double svc = head_rate_;  // 0 when the queue is empty
        cat_[svc_idx_] = svc;
        const double total = base_sum_ + svc;
        if (total <= 0.0) return false;  // frozen system (invalid params only)

        const double dt = brng_.exponential(total);
        const double hold_start = now_;
        now_ += dt;
        if (now_ >= opts_.horizon) return false;
        ++events_;
        if (kSteady || hold_start >= opts_.warmup) {
            if (at_user_bound_) res_.time_at_user_bound += dt;
            if (at_app_bound_) res_.time_at_app_bound += dt;
        }

        double u = brng_.uniform() * total;

        // Category selection. The semantic scan is the historical sequential
        // subtraction walk (the fallback below); its float path must be kept
        // verbatim because a reformulated reduction could round differently
        // and flip the pick on a knife-edge u. The fast path counts prefix
        // boundaries branchlessly (pref_[j] is the rebuild's running sum
        // after category j, i.e. the exact boundary the walk tests) and
        // accepts only when u clears the candidate's enclosing boundaries by
        // `margin`: the walk's accumulated rounding versus the stored
        // prefixes is < ~cat_size * eps * total ~= 4e-15 * total, so a
        // 1e-12 * total margin leaves ~250x slack and the two methods
        // provably agree. Knife-edge draws (~1e-12 of them) take the walk.
        std::size_t k;
        {
            const std::size_t nb = svc_idx_;  // boundaries pref_[0..nb-1]
            std::size_t c = 0;
            if (l_ == 5) {
                // Fixed trip count for the paper's 5-type baseline: the
                // count fully unrolls into vector compares.
                for (std::size_t j = 0; j < 17; ++j) c += u >= pref_[j] ? 1 : 0;
            } else {
                for (std::size_t j = 0; j < nb; ++j) c += u >= pref_[j] ? 1 : 0;
            }
            const double margin = 1e-12 * total;
            const bool lo_ok = c == 0 || u - pref_[c - 1] > margin;
            const bool hi_ok = c == nb || pref_[c] - u > margin;
            if (lo_ok && hi_ok) {
                k = c;
            } else {
                k = 0;
                while (k + 1 < cat_size_ && u >= cat_[k]) {
                    u -= cat_[k];
                    ++k;
                }
            }
        }

        if (k == svc_idx_) {
            // Service completion.
            const QueuedMsg msg = queue_.pop_front();
            // Unconditional load + select (slots are value-initialized, so
            // the empty-queue load is defined); compiles to a cmov instead
            // of a poorly predicted empty/non-empty branch.
            const double next_rate = queue_.front_slot().service_rate;
            head_rate_ = queue_.empty() ? 0.0 : next_rate;
            if (msg.arrival >= opts_.warmup) {
                const double sojourn = now_ - msg.arrival;
                delay_.add(sojourn);
                if (record_delays_) res_.delays.push_back(sojourn);
                if (per_type_) res_.delay_by_app_type[msg.app_type].add(sojourn);
                ++departures_;
            }
            queue_changed<kSteady, kHooks>();
        } else if (k >= 2) {
            const std::size_t i = (k - 2) / 3;
            switch ((k - 2) % 3) {
                case 0:
                    ++apps_[i];
                    ++total_apps_;
                    rebuild_base();
                    population_changed<kSteady, kHooks>();
                    break;
                case 1:
                    --apps_[i];
                    --total_apps_;
                    rebuild_base();
                    population_changed<kSteady, kHooks>();
                    break;
                case 2: {
                    // Message arrival of application type i. Drop on a full
                    // finite buffer; otherwise pick message type j
                    // proportional to lambda_ij and enqueue.
                    if (queue_.size() >= cap_) {
                        if (kSteady || now_ >= opts_.warmup) ++losses_;
                        break;
                    }
                    const std::uint32_t b = rates_.msg_off[i];
                    const std::uint32_t e = rates_.msg_off[i + 1];
                    const double v = brng_.uniform() * rates_.message_rate[i];
                    // Branchless count of cleared cumulative thresholds —
                    // identical comparisons to the historical linear walk
                    // (msg_cum is cumulative, so the walk never mutates v).
                    std::uint32_t j = b;
                    for (std::uint32_t t = b; t + 1 < e; ++t)
                        j += v >= rates_.msg_cum[t] ? 1u : 0u;
                    queue_.push_back(QueuedMsg{now_, rates_.msg_service[j],
                                               static_cast<std::uint32_t>(i)});
                    head_rate_ = queue_.size() == 1 ? rates_.msg_service[j]
                                                    : head_rate_;
                    if (kSteady || now_ >= opts_.warmup) {
                        ++arrivals_;
                        if (record_arrivals_) res_.arrival_times.push_back(now_);
                    }
                    queue_changed<kSteady, kHooks>();
                    break;
                }
            }
        } else if (k == 0) {
            ++users_;
            rebuild_base();
            population_changed<kSteady, kHooks>();
        } else {  // k == 1
            --users_;
            rebuild_base();
            population_changed<kSteady, kHooks>();
        }
        return true;
    }

public:
    stats::OnlineStats delay_;  // pooled into res_ by the caller

private:
    const HapParams& p_;
    const HapSimOptions& opts_;
    HapSimResult& res_;
    RateTable rates_;
    sim::BlockRng brng_;

    std::vector<double> cat_;
    std::vector<double> pref_;  // running left-to-right sums of cat_[0..j]
    std::size_t l_ = 0;
    std::size_t svc_idx_ = 0;
    std::size_t cat_size_ = 0;
    double base_sum_ = 0.0;
    bool dynamic_users_ = false;
    bool app_ok_ = true;
    bool at_user_bound_ = false;
    bool at_app_bound_ = false;
    bool record_delays_ = false;
    bool record_arrivals_ = false;
    bool per_type_ = false;
    std::size_t cap_ = 0;

    double now_ = 0.0;
    double head_rate_ = 0.0;  // service rate of the queue head; 0 when empty
    std::uint64_t users_ = 0;
    std::uint64_t total_apps_ = 0;
    std::vector<std::uint64_t> apps_;
    sim::RingBuffer<QueuedMsg> queue_;

    std::uint64_t events_ = 0;
    std::uint64_t arrivals_ = 0;
    std::uint64_t departures_ = 0;
    std::uint64_t losses_ = 0;

    stats::TimeWeightedStats number_;
    stats::TimeWeightedStats users_tw_;
    stats::TimeWeightedStats apps_tw_;
    stats::BusyPeriodTracker busy_;
};

}  // namespace

HapSimResult simulate_hap_queue(const HapParams& params, sim::RandomStream& rng,
                                const HapSimOptions& opts) {
    params.validate();

    HapSimResult res;
    res.horizon = opts.horizon;
    res.number = stats::TimeWeightedStats(opts.warmup, 0.0);
    res.users = stats::TimeWeightedStats(opts.warmup, 0.0);
    res.apps = stats::TimeWeightedStats(opts.warmup, 0.0);
    res.busy = stats::BusyPeriodTracker(opts.warmup);
    if (opts.per_type_stats) res.delay_by_app_type.resize(params.apps.size());

    {
        HapEngine engine(params, rng, opts, res);
        engine.run();
        res.delay = engine.delay_;
    }

    res.number.finish(opts.horizon);
    res.users.finish(opts.horizon);
    res.apps.finish(opts.horizon);
    res.busy.finish(opts.horizon);
    res.utilization = res.busy.busy_fraction();
    const double observed = opts.horizon - opts.warmup;
    if (observed > 0.0) {
        res.time_at_user_bound /= observed;
        res.time_at_app_bound /= observed;
    }
    // Batched at run end so the event loop itself never touches the registry.
    if (obs::enabled()) {
        obs::MetricsRegistry& reg = obs::registry();
        reg.add_counter("hap_sim.events", res.events);
        reg.add_counter("hap_sim.arrivals", res.arrivals);
        reg.add_counter("hap_sim.departures", res.departures);
        reg.add_counter("hap_sim.losses", res.losses);
    }
    return res;
}

HapSource::HapSource(HapParams params) : params_(std::move(params)) {
    params_.validate();
    reset();
}

void HapSource::reset() {
    time_ = 0.0;
    users_ = params_.permanent_users > 0
                 ? params_.permanent_users
                 : static_cast<std::uint64_t>(params_.mean_users() + 0.5);
    apps_.assign(params_.num_app_types(), 0);
    total_apps_ = 0;
    for (std::size_t i = 0; i < apps_.size(); ++i) {
        const ApplicationType& a = params_.apps[i];
        apps_[i] = static_cast<std::uint64_t>(
            static_cast<double>(users_) * a.arrival_rate / a.departure_rate + 0.5);
        total_apps_ += apps_[i];
    }
    rates_valid_ = false;
}

double HapSource::mean_rate() const { return params_.mean_message_rate(); }

// Refresh the cached aggregate rates after a population change. The
// reduction order is exactly the historical per-iteration computation, so
// every cached value is the float the old code recomputed each time; only
// the call frequency changed. total_apps_ is maintained incrementally
// (exact integer arithmetic) instead of re-summed.
void HapSource::recompute_rates() {
    const bool dynamic_users = params_.permanent_users == 0;
    const double xd = static_cast<double>(users_);
    const bool user_ok =
        dynamic_users && (params_.max_users == 0 || users_ < params_.max_users);
    app_ok_ = params_.max_apps == 0 || total_apps_ < params_.max_apps;

    double total = 0.0;
    r_user_arr_ = user_ok ? params_.user_arrival_rate : 0.0;
    r_user_dep_ = dynamic_users ? xd * params_.user_departure_rate : 0.0;
    total += r_user_arr_ + r_user_dep_;
    double msg_total = 0.0;
    for (std::size_t i = 0; i < params_.apps.size(); ++i) {
        const ApplicationType& a = params_.apps[i];
        const double yd = static_cast<double>(apps_[i]);
        total += (app_ok_ ? xd * a.arrival_rate : 0.0) + yd * a.departure_rate;
        msg_total += yd * a.total_message_rate();
    }
    total += msg_total;
    msg_total_ = msg_total;
    total_ = total;
    rates_valid_ = true;
}

double HapSource::next(sim::RandomStream& rng) {
    // No block RNG here: the caller interleaves this stream with service
    // draws (simulate_queue), so over-drawing would shift its sequence.
    const std::size_t l = params_.num_app_types();
    for (;;) {
        if (!rates_valid_) recompute_rates();
        if (total_ <= 0.0) return std::numeric_limits<double>::infinity();

        time_ += rng.exponential(total_);
        double u = rng.uniform() * total_;

        if (u < msg_total_) return time_;
        u -= msg_total_;
        if (u < r_user_arr_) {
            ++users_;
            rates_valid_ = false;
            continue;
        }
        u -= r_user_arr_;
        if (u < r_user_dep_) {
            --users_;
            rates_valid_ = false;
            continue;
        }
        u -= r_user_dep_;
        const double xd = static_cast<double>(users_);
        for (std::size_t i = 0; i < l; ++i) {
            const ApplicationType& a = params_.apps[i];
            const double arr = app_ok_ ? xd * a.arrival_rate : 0.0;
            if (u < arr) {
                ++apps_[i];
                ++total_apps_;
                rates_valid_ = false;
                break;
            }
            u -= arr;
            const double dep = static_cast<double>(apps_[i]) * a.departure_rate;
            if (u < dep) {
                --apps_[i];
                --total_apps_;
                rates_valid_ = false;
                break;
            }
            u -= dep;
        }
    }
}

}  // namespace hap::core
