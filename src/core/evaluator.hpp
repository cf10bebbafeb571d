#pragma once
// Design-point evaluation with distinct-evaluation accounting.
//
// In the paper, the cost of a design-space query is the number of *distinct*
// design points that must be synthesized/simulated; when the GA revisits a
// previously synthesized configuration the result is free (section 4.2,
// Fig. 4 caption).  CachingEvaluator implements exactly this accounting: it
// memoizes results by genome and charges only cache misses.
//
// The evaluator is thread-safe with in-flight deduplication: concurrent
// requests for the same unevaluated genome produce exactly one call to the
// underlying evaluation function and exactly one charged distinct
// evaluation; the losers block until the winner publishes the result.  This
// is the contract the BatchEvaluator thread pool relies on to keep parallel
// runs' distinct_evaluations() identical to serial runs (DESIGN.md,
// "Evaluation pipeline").

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/fitness.hpp"
#include "core/genome.hpp"

namespace nautilus {

// Raw evaluation of a design point; typically runs the virtual synthesis
// model or looks up an offline dataset.  Must be deterministic per genome.
using EvalFn = std::function<Evaluation(const Genome&)>;

// Memoizing, thread-safe evaluator over an arbitrary result type.  The
// single-objective engines use CachingEvaluator (= Evaluation results); the
// NSGA-II engine instantiates it with optional objective vectors.
template <typename Value>
class BasicCachingEvaluator {
public:
    using Fn = std::function<Value(const Genome&)>;

    explicit BasicCachingEvaluator(Fn fn) : fn_(std::move(fn))
    {
        if (!fn_)
            throw std::invalid_argument("CachingEvaluator: null evaluation function");
    }

    BasicCachingEvaluator(const BasicCachingEvaluator&) = delete;
    BasicCachingEvaluator& operator=(const BasicCachingEvaluator&) = delete;

    // Returns the memoized evaluation, computing (and charging) on miss.
    // Safe to call from several threads; a genome in flight on another
    // thread is awaited, not recomputed.
    Value evaluate(const Genome& genome)
    {
        std::unique_lock lock{mutex_};
        ++calls_;
        bool counted_wait = false;
        for (;;) {
            auto it = cache_.find(genome);
            if (it == cache_.end()) break;  // miss: this thread computes
            if (it->second) return *it->second;
            // In flight on another thread.  Wait; the slot is erased if that
            // thread's evaluation throws, in which case we retry the miss.
            if (!counted_wait) {
                ++inflight_waits_;
                counted_wait = true;
            }
            ready_.wait(lock);
        }
        cache_.emplace(genome, std::nullopt);
        ++distinct_;
        lock.unlock();
        Value result;
        try {
            result = fn_(genome);
        }
        catch (...) {
            lock.lock();
            cache_.erase(genome);
            --distinct_;
            ready_.notify_all();
            throw;
        }
        lock.lock();
        cache_[genome] = result;
        ready_.notify_all();
        return result;
    }

    // Number of cache misses == synthesis jobs the paper counts.
    std::size_t distinct_evaluations() const
    {
        std::lock_guard lock{mutex_};
        return distinct_;
    }

    // All evaluate() calls including cache hits.
    std::size_t total_calls() const
    {
        std::lock_guard lock{mutex_};
        return calls_;
    }

    // Calls that blocked on an in-flight evaluation of the same genome on
    // another thread (each call counted once, however often it re-waits).
    std::size_t inflight_waits() const
    {
        std::lock_guard lock{mutex_};
        return inflight_waits_;
    }

    // Checkpointable view of the cache: published entries plus the
    // accounting counters.  Entries are sorted by genome key so snapshots
    // serialize identically regardless of hash-map iteration order.
    struct Snapshot {
        std::vector<std::pair<Genome, Value>> entries;
        std::size_t distinct = 0;
        std::size_t calls = 0;
    };

    // Must not race with in-flight evaluate() calls (engines snapshot
    // between evaluation waves; in-flight slots would be lost).
    Snapshot snapshot() const
    {
        std::lock_guard lock{mutex_};
        Snapshot snap;
        snap.entries.reserve(cache_.size());
        for (const auto& [genome, value] : cache_)
            if (value) snap.entries.emplace_back(genome, *value);
        std::sort(snap.entries.begin(), snap.entries.end(),
                  [](const auto& a, const auto& b) { return a.first.key() < b.first.key(); });
        snap.distinct = distinct_;
        snap.calls = calls_;
        return snap;
    }

    // Replace the cache with a checkpointed snapshot.  The restored distinct
    // and call counters make a resumed run's accounting bit-for-bit equal to
    // an uninterrupted one.  Must not race with evaluate().
    void restore(const Snapshot& snap)
    {
        std::lock_guard lock{mutex_};
        cache_.clear();
        for (const auto& [genome, value] : snap.entries) cache_[genome] = value;
        distinct_ = snap.distinct;
        calls_ = snap.calls;
        inflight_waits_ = 0;
    }

private:
    Fn fn_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    // nullopt marks an in-flight evaluation (claimed but not yet published).
    std::unordered_map<Genome, std::optional<Value>, GenomeHash> cache_;
    std::size_t distinct_ = 0;
    std::size_t calls_ = 0;
    std::size_t inflight_waits_ = 0;
};

using CachingEvaluator = BasicCachingEvaluator<Evaluation>;

}  // namespace nautilus
