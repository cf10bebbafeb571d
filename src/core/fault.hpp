#pragma once
// Fault-tolerant evaluation: retry, watchdog timeout, quarantine.
//
// The paper's evaluations are full synthesis/place-and-route jobs -- hours of
// CAD runtime on a cluster where crashed tools, license hiccups and hung jobs
// are routine.  The seed pipeline treated every evaluation as infallible: one
// throwing evaluation aborted the whole query.  FaultTolerantEvaluator wraps
// the raw evaluation function *below* the memoization cache, so every cache
// miss passes through exactly one guarded call that
//   1. retries failed/timed-out attempts per RetryPolicy (exponential backoff
//      with deterministic, seeded jitter -- no global RNG, so results stay
//      bit-for-bit independent of thread scheduling and worker count);
//   2. bounds each attempt with a wall-clock watchdog (the attempt runs on a
//      helper thread; on timeout the result is abandoned, not awaited);
//   3. quarantines a design point whose attempts are exhausted and serves a
//      configurable penalty value instead, so a long search degrades
//      gracefully rather than aborting at generation 79 of 80.
//
// Accounting invariant (validated by `nautilus_trace inspect --check`):
// every guarded call makes >= 1 attempt, so
//     attempts == guarded calls (== cache misses) + retries.
// Each call's outcome (ok / failed / timed_out, attempt count, penalty flag)
// goes to the caller and is surfaced through trace events and eval.* counters.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/genome.hpp"
#include "core/rng.hpp"
#include "obs/obs.hpp"

namespace nautilus {

enum class EvalStatus { ok, failed, timed_out };

const char* eval_status_name(EvalStatus status);

// What happened to one design point's evaluation, after retries.
struct EvalOutcome {
    EvalStatus status = EvalStatus::ok;
    std::size_t attempts = 0;  // underlying evaluation-function invocations
    bool penalized = false;    // value served is the quarantine penalty
    std::string error;         // what() of the last failure; not written on success
};

// Retry/backoff/timeout knobs for one evaluation pipeline.
struct RetryPolicy {
    std::size_t max_attempts = 1;    // 1 = no retries
    double backoff_ms = 0.0;         // sleep before attempt 2 (0 = immediate)
    double backoff_multiplier = 2.0; // exponential growth per further attempt
    double jitter = 0.0;             // +/- fraction of the backoff, seeded
    std::uint64_t jitter_seed = 0x6a177e5;
    double timeout_seconds = 0.0;    // per-attempt watchdog (0 = unlimited)

    void validate() const;  // throws std::invalid_argument on bad settings

    // Milliseconds to sleep before attempt `attempt` (2-based) of `key`.
    // Deterministic in (policy, key, attempt): the jitter is hashed, not
    // drawn from a shared RNG, so concurrent evaluations cannot perturb each
    // other's schedules.
    double backoff_before(std::size_t attempt, std::uint64_t key) const;
};

// Fault policy threaded through engine configs.  With `tolerate_failures`
// off (the default) the guard only counts attempts and retries: an
// evaluation that still fails after max_attempts rethrows to the caller,
// preserving the historical contract.  With it on, exhausted design points
// are quarantined and answered with `penalty` instead.
struct FaultPolicy {
    RetryPolicy retry;
    bool tolerate_failures = false;

    void validate() const { retry.validate(); }
};

// Cumulative guard accounting (monotone within a run; checkpointable).
struct FaultCounters {
    std::uint64_t attempts = 0;     // evaluation-function invocations
    std::uint64_t retries = 0;      // attempts beyond the first per call
    std::uint64_t failures = 0;     // attempts that threw
    std::uint64_t timeouts = 0;     // attempts killed by the watchdog
    std::uint64_t quarantined = 0;  // design points moved to quarantine
    std::uint64_t penalties = 0;    // penalty values served

    bool operator==(const FaultCounters&) const = default;
};

// Wraps a raw evaluation function with retry + timeout + quarantine.  Sits
// *below* BasicCachingEvaluator: the cache calls the guard on every miss, so
// penalties are memoized like ordinary results and repeated requests for a
// quarantined point are free cache hits.  Thread-safe: concurrent guarded
// calls (one per distinct in-flight genome, by the cache's dedup contract)
// only share atomics and the mutex-protected quarantine list.
template <typename Value>
class FaultTolerantEvaluator {
public:
    using Fn = std::function<Value(const Genome&)>;

    FaultTolerantEvaluator(Fn fn, FaultPolicy policy, Value penalty)
        : fn_(std::move(fn)), policy_(policy), penalty_(std::move(penalty))
    {
        if (!fn_)
            throw std::invalid_argument("FaultTolerantEvaluator: null evaluation function");
        policy_.validate();
    }

    FaultTolerantEvaluator(const FaultTolerantEvaluator&) = delete;
    FaultTolerantEvaluator& operator=(const FaultTolerantEvaluator&) = delete;

    // Attach tracing + metrics; failed attempts emit "eval_fault" events and
    // quarantines emit "quarantine" events.  Handles resolved once.
    void set_instrumentation(obs::Instrumentation inst)
    {
        inst_ = std::move(inst);
        m_attempts_ = m_retries_ = m_failures_ = m_timeouts_ = nullptr;
        m_quarantined_ = m_penalties_ = nullptr;
        if (obs::MetricsRegistry* reg = inst_.registry()) {
            m_attempts_ = &reg->counter("eval.attempts");
            m_retries_ = &reg->counter("eval.retries");
            m_failures_ = &reg->counter("eval.failures");
            m_timeouts_ = &reg->counter("eval.timeouts");
            m_quarantined_ = &reg->counter("eval.quarantined");
            m_penalties_ = &reg->counter("eval.penalties");
        }
    }

    Value evaluate(const Genome& genome, EvalOutcome* out = nullptr)
    {
        return evaluate(genome, genome.key(), out);
    }

    // Evaluate with retries.  Never throws when tolerate_failures is on
    // (exhausted points are quarantined and answered with the penalty);
    // rethrows the last attempt's error otherwise.  `key` is genome.key()
    // (it seeds the backoff jitter and names quarantined points).  `out`,
    // when non-null, receives the outcome of this call; a success writes
    // only its status, attempt count and penalty flag.
    Value evaluate(const Genome& genome, std::uint64_t key, EvalOutcome* out = nullptr)
    {
        EvalOutcome outcome;
        std::exception_ptr last_error;
        for (std::size_t attempt = 1; attempt <= policy_.retry.max_attempts; ++attempt) {
            if (attempt > 1) {
                bump(counters_.retries, m_retries_);
                const double ms = policy_.retry.backoff_before(attempt, key);
                if (ms > 0.0)
                    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>{ms});
            }
            bump(counters_.attempts, m_attempts_);
            outcome.attempts = attempt;
            AttemptResult result = run_attempt(genome);
            if (result.status == EvalStatus::ok) {
                if (out != nullptr) {
                    out->status = EvalStatus::ok;
                    out->attempts = attempt;
                    out->penalized = false;
                }
                return std::move(*result.value);
            }
            outcome.status = result.status;
            outcome.error = std::move(result.error);
            last_error = result.exception;
            if (result.status == EvalStatus::timed_out)
                bump(counters_.timeouts, m_timeouts_);
            else
                bump(counters_.failures, m_failures_);
            if (inst_.tracing()) {
                obs::TraceEvent ev{"eval_fault"};
                ev.add("key", std::size_t{key})
                    .add("attempt", attempt)
                    .add("status", eval_status_name(result.status))
                    .add("error", outcome.error.c_str());
                inst_.tracer.emit(std::move(ev));
            }
        }
        // Attempts exhausted.
        if (!policy_.tolerate_failures) {
            if (out != nullptr) *out = outcome;
            if (last_error) std::rethrow_exception(last_error);
            throw std::runtime_error("FaultTolerantEvaluator: evaluation timed out (" +
                                     outcome.error + ")");
        }
        outcome.penalized = true;
        bump(counters_.quarantined, m_quarantined_);
        bump(counters_.penalties, m_penalties_);
        {
            std::lock_guard lock{mutex_};
            quarantine_.push_back(key);
        }
        if (inst_.tracing()) {
            obs::TraceEvent ev{"quarantine"};
            ev.add("key", std::size_t{key})
                .add("attempts", outcome.attempts)
                .add("status", eval_status_name(outcome.status));
            inst_.tracer.emit(std::move(ev));
        }
        if (out != nullptr) *out = std::move(outcome);
        return penalty_;
    }

    FaultCounters counters() const
    {
        FaultCounters c;
        c.attempts = counters_.attempts.load(std::memory_order_relaxed);
        c.retries = counters_.retries.load(std::memory_order_relaxed);
        c.failures = counters_.failures.load(std::memory_order_relaxed);
        c.timeouts = counters_.timeouts.load(std::memory_order_relaxed);
        c.quarantined = counters_.quarantined.load(std::memory_order_relaxed);
        c.penalties = counters_.penalties.load(std::memory_order_relaxed);
        return c;
    }

    // Keys of quarantined design points, in quarantine order.
    std::vector<std::uint64_t> quarantined_keys() const
    {
        std::lock_guard lock{mutex_};
        return quarantine_;
    }

    // Restore checkpointed state (quarantine list + counters).  Must not
    // race with evaluate().
    void restore(std::span<const std::uint64_t> quarantine, const FaultCounters& counters)
    {
        std::lock_guard lock{mutex_};
        quarantine_.assign(quarantine.begin(), quarantine.end());
        counters_.attempts.store(counters.attempts, std::memory_order_relaxed);
        counters_.retries.store(counters.retries, std::memory_order_relaxed);
        counters_.failures.store(counters.failures, std::memory_order_relaxed);
        counters_.timeouts.store(counters.timeouts, std::memory_order_relaxed);
        counters_.quarantined.store(counters.quarantined, std::memory_order_relaxed);
        counters_.penalties.store(counters.penalties, std::memory_order_relaxed);
    }

private:
    struct AttemptResult {
        EvalStatus status = EvalStatus::ok;
        std::optional<Value> value;
        std::string error;
        std::exception_ptr exception;
    };

    // One attempt, in-thread when no timeout is configured, otherwise on a
    // watchdog-supervised helper thread.  A timed-out helper is abandoned
    // (detached); it owns its state via shared_ptr, finishes its evaluation
    // eventually, and its late result is simply discarded.
    AttemptResult run_attempt(const Genome& genome)
    {
        AttemptResult out;
        if (policy_.retry.timeout_seconds <= 0.0) {
            try {
                out.value = fn_(genome);
            }
            catch (const std::exception& e) {
                out.status = EvalStatus::failed;
                out.error = e.what();
                out.exception = std::current_exception();
            }
            catch (...) {
                out.status = EvalStatus::failed;
                out.error = "unknown exception";
                out.exception = std::current_exception();
            }
            return out;
        }

        struct Shared {
            std::mutex m;
            std::condition_variable cv;
            bool done = false;
            std::optional<Value> value;
            std::string error;
            std::exception_ptr exception;
        };
        auto shared = std::make_shared<Shared>();
        std::thread worker{[shared, genome, fn = fn_] {
            std::optional<Value> value;
            std::string error;
            std::exception_ptr exception;
            try {
                value = fn(genome);
            }
            catch (const std::exception& e) {
                error = e.what();
                exception = std::current_exception();
            }
            catch (...) {
                error = "unknown exception";
                exception = std::current_exception();
            }
            std::lock_guard lock{shared->m};
            shared->value = std::move(value);
            shared->error = std::move(error);
            shared->exception = exception;
            shared->done = true;
            shared->cv.notify_all();
        }};

        std::unique_lock lock{shared->m};
        const bool finished = shared->cv.wait_for(
            lock, std::chrono::duration<double>{policy_.retry.timeout_seconds},
            [&] { return shared->done; });
        if (!finished) {
            lock.unlock();
            worker.detach();  // abandoned; late result is discarded with `shared`
            out.status = EvalStatus::timed_out;
            out.error = "watchdog timeout after " +
                        std::to_string(policy_.retry.timeout_seconds) + " s";
            return out;
        }
        if (shared->exception) {
            out.status = EvalStatus::failed;
            out.error = shared->error;
            out.exception = shared->exception;
        }
        else {
            out.value = std::move(shared->value);
        }
        lock.unlock();
        worker.join();
        return out;
    }

    static void bump(std::atomic<std::uint64_t>& counter, obs::Counter* metric)
    {
        counter.fetch_add(1, std::memory_order_relaxed);
        if (metric != nullptr) metric->add();
    }

    struct AtomicCounters {
        std::atomic<std::uint64_t> attempts{0};
        std::atomic<std::uint64_t> retries{0};
        std::atomic<std::uint64_t> failures{0};
        std::atomic<std::uint64_t> timeouts{0};
        std::atomic<std::uint64_t> quarantined{0};
        std::atomic<std::uint64_t> penalties{0};
    };

    Fn fn_;
    FaultPolicy policy_;
    Value penalty_;
    AtomicCounters counters_;
    mutable std::mutex mutex_;
    std::vector<std::uint64_t> quarantine_;

    obs::Instrumentation inst_;
    obs::Counter* m_attempts_ = nullptr;
    obs::Counter* m_retries_ = nullptr;
    obs::Counter* m_failures_ = nullptr;
    obs::Counter* m_timeouts_ = nullptr;
    obs::Counter* m_quarantined_ = nullptr;
    obs::Counter* m_penalties_ = nullptr;
};

}  // namespace nautilus
