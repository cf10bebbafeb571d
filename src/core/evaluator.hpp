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
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <stdexcept>
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
//
// The memo is a flat open-addressing table keyed by genes_key, the one
// genome hash: callers pass the key in, and the miss path hands it on, so no
// layer below rehashes.  Distinct genomes append to `entries_` and their
// genes to one contiguous arena; the table holds (key, entry index) slots
// with linear probing and checks gene equality on a key match.
template <typename Value>
class BasicCachingEvaluator {
public:
    using Fn = std::function<Value(const Genome&)>;
    // The miss path: the genome and its genes_key.
    using KeyedFn = std::function<Value(const Genome&, std::uint64_t key)>;

    // Table slots allocated on the first lookup; the table doubles whenever
    // it would pass half full.
    static constexpr std::size_t k_initial_slots = 64;

    explicit BasicCachingEvaluator(KeyedFn fn) : fn_(std::move(fn))
    {
        if (!fn_)
            throw std::invalid_argument("CachingEvaluator: null evaluation function");
    }

    explicit BasicCachingEvaluator(Fn fn)
        : BasicCachingEvaluator(fn ? KeyedFn{[f = std::move(fn)](const Genome& g,
                                                                 std::uint64_t) { return f(g); }}
                                   : KeyedFn{})
    {
    }

    BasicCachingEvaluator(const BasicCachingEvaluator&) = delete;
    BasicCachingEvaluator& operator=(const BasicCachingEvaluator&) = delete;

    Value evaluate(const Genome& genome) { return evaluate(genome, genome.key()); }

    // Returns the memoized evaluation, computing (and charging) on miss.
    // `key` must be genome.key(); BatchEvaluator computes it once per wave
    // slot, outside the lock.  Safe to call from several threads; a genome
    // in flight on another thread is awaited, not recomputed.
    //
    // In-flight slot rule: the computing thread holds an entry index, not a
    // table slot.  Growth re-places only the slots; entries are only ever
    // appended, never erased (a rolled-back claim returns to `absent`), so
    // the index stays valid however far the table grows while the
    // evaluation runs.  That needs neither a reservation before fan-out,
    // which direct callers could not make, nor a second probe under the
    // lock.
    Value evaluate(const Genome& genome, std::uint64_t key)
    {
        std::unique_lock lock{mutex_};
        ++calls_;
        const std::uint32_t e = find_or_add(genome.genes(), key);
        bool counted_wait = false;
        for (;;) {
            const State state = entries_[e].state;
            if (state == State::ready) return entries_[e].value;
            if (state == State::absent) break;  // miss: this thread computes
            // In flight on another thread.  Wait; the entry returns to absent
            // if that thread's evaluation throws, and a waiter claims it.
            if (!counted_wait) {
                ++inflight_waits_;
                counted_wait = true;
            }
            ready_.wait(lock);
        }
        entries_[e].state = State::in_flight;
        ++distinct_;
        lock.unlock();
        Value result;
        try {
            result = fn_(genome, key);
        }
        catch (...) {
            lock.lock();
            entries_[e].state = State::absent;
            --distinct_;
            ready_.notify_all();
            throw;
        }
        lock.lock();
        entries_[e].value = result;
        entries_[e].state = State::ready;
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
    // accounting counters.  Entries are sorted by genome key, then genes, so
    // snapshots serialize identically whatever the insertion order.
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
        std::vector<const Entry*> ready;
        for (const Entry& entry : entries_)
            if (entry.state == State::ready) ready.push_back(&entry);
        std::sort(ready.begin(), ready.end(), [this](const Entry* a, const Entry* b) {
            if (a->key != b->key) return a->key < b->key;
            const auto ga = genes_of(*a);
            const auto gb = genes_of(*b);
            return std::lexicographical_compare(ga.begin(), ga.end(), gb.begin(), gb.end());
        });
        Snapshot snap;
        snap.entries.reserve(ready.size());
        for (const Entry* entry : ready) {
            const auto genes = genes_of(*entry);
            snap.entries.emplace_back(Genome{std::vector<std::uint32_t>(genes.begin(), genes.end())},
                                      entry->value);
        }
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
        entries_.clear();
        genes_.clear();
        slots_.clear();
        for (const auto& [genome, value] : snap.entries) {
            Entry& entry = entries_[find_or_add(genome.genes(), genome.key())];
            entry.value = value;
            entry.state = State::ready;
        }
        distinct_ = snap.distinct;
        calls_ = snap.calls;
        inflight_waits_ = 0;
    }

private:
    enum class State : std::uint8_t { absent, in_flight, ready };

    // One distinct genome; its genes are genes_[offset, offset + size).
    struct Entry {
        std::uint64_t key = 0;
        std::size_t offset = 0;
        std::uint32_t size = 0;
        State state = State::absent;
        Value value{};
    };

    // A table slot: the entry's key and its index + 1 (0 marks an empty slot).
    struct Slot {
        std::uint64_t key = 0;
        std::uint32_t entry = 0;
    };

    std::span<const std::uint32_t> genes_of(const Entry& entry) const
    {
        return {genes_.data() + entry.offset, entry.size};
    }

    // Index of the entry for `genes`, appending an absent one on a miss.
    std::uint32_t find_or_add(std::span<const std::uint32_t> genes, std::uint64_t key)
    {
        if (2 * (entries_.size() + 1) > slots_.size()) grow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = key & mask;; i = (i + 1) & mask) {
            Slot& slot = slots_[i];
            if (slot.entry == 0) {
                entries_.push_back(
                    {key, genes_.size(), static_cast<std::uint32_t>(genes.size())});
                genes_.insert(genes_.end(), genes.begin(), genes.end());
                slot = {key, static_cast<std::uint32_t>(entries_.size())};
                return slot.entry - 1;
            }
            if (slot.key == key) {
                const auto stored = genes_of(entries_[slot.entry - 1]);
                if (std::equal(genes.begin(), genes.end(), stored.begin(), stored.end()))
                    return slot.entry - 1;
            }
        }
    }

    // Double the slot table, re-placing slots by their stored keys.
    void grow()
    {
        std::vector<Slot> old = std::exchange(
            slots_, std::vector<Slot>(std::max(k_initial_slots, 2 * slots_.size())));
        entries_.reserve(slots_.size() / 2);  // entries never pass half the slots
        const std::size_t mask = slots_.size() - 1;
        for (const Slot& slot : old) {
            if (slot.entry == 0) continue;
            std::size_t i = slot.key & mask;
            while (slots_[i].entry != 0) i = (i + 1) & mask;
            slots_[i] = slot;
        }
    }

    KeyedFn fn_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::vector<Entry> entries_;       // distinct genomes, in first-lookup order
    std::vector<std::uint32_t> genes_;  // every entry's genes, back to back
    std::vector<Slot> slots_;          // power-of-two open-addressing table
    std::size_t distinct_ = 0;
    std::size_t calls_ = 0;
    std::size_t inflight_waits_ = 0;
};

using CachingEvaluator = BasicCachingEvaluator<Evaluation>;

}  // namespace nautilus
