// Cross-run persistent evaluation store.
//
// Nautilus's cost model is *distinct evaluations*: a synthesis result, once
// computed, should never be paid for again — not by this run, not by the next
// one (paper §3, ROADMAP "Cross-run persistent evaluation store").  The store
// is a content-addressed map from (namespace, genome) to objective values,
// persisted on disk so warm runs answer repeat queries without touching the
// evaluator.
//
// Placement: the store sits *below* each engine's per-run memoization cache
// (`BasicCachingEvaluator`) and *above* the fault guard.  A store hit still
// charges one distinct evaluation in the memo layer, so every per-run counter
// the determinism contract gates on (distinct evals, total calls, cache hits,
// best) is bit-for-bit identical between cold and warm runs; only `attempts`
// (work actually sent to the evaluator) shrinks.  Penalized outcomes from the
// fault guard are never inserted — quarantine penalties are per-run policy,
// not ground truth, and must not poison a shared store.
//
// On-disk layout (directory):
//
//   MANIFEST            nautilus-eval-store 1 / ordered segment list
//   seg-000001.log      append-only records, one per line:
//                         rec <ns> <nGenes> <g...> <feasible> <nVals> <bits...> <crc>
//
// Doubles use the checkpoint code's IEEE-754 bit-exact encoding (u64 of
// std::bit_cast).  <crc> is FNV-1a 64 over the line text before it.  The
// MANIFEST is committed with the tmp+fsync+rename discipline
// (core/atomic_file.hpp); segment appends are fsync'd.  An interrupted append
// can only tear the *tail* record of the last segment; open() truncates that
// tail and carries on.  A corrupt record anywhere else is a hard error.
//
// Compaction rewrites live records into a fresh segment (dropping superseded
// duplicates), and the size budget (`max_bytes`) evicts oldest-inserted
// records first during compaction.
//
// Concurrency: single writer, concurrent readers.  lookup() takes a shared
// lock on the in-memory index only (no I/O), so BatchEvaluator workers read
// in parallel; insert()/flush()/compact() serialize on the writer side.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/fitness.hpp"
#include "core/genome.hpp"
#include "obs/metrics.hpp"

namespace nautilus {

// One persisted result.  `values` is the objective vector: one entry for
// single-objective engines, one per objective for NSGA-II.  An infeasible
// design point stores feasible=false (values preserved verbatim so the
// round-trip is bit-exact).
struct StoredResult {
    bool feasible = true;
    std::vector<double> values;

    bool operator==(const StoredResult&) const = default;
};

struct EvalStoreConfig {
    std::string path;                // store directory; created if absent
    std::uint64_t max_bytes = 0;     // live-record budget; 0 = unlimited
    std::size_t flush_every = 64;    // write-behind: pending inserts per flush
    std::uint64_t segment_bytes = 4ull << 20;  // roll segments past this size
    double compact_dead_ratio = 0.5;  // auto-compact when dead/disk exceeds
    bool sync = true;                 // fsync appends + commits (off = bench only)

    void validate() const;  // throws std::invalid_argument on nonsense
};

struct EvalStoreCounters {
    std::uint64_t hits = 0;         // lookups answered from the store
    std::uint64_t misses = 0;       // lookups that found nothing
    std::uint64_t writes = 0;       // records accepted by insert()
    std::uint64_t flushes = 0;      // write-behind batches appended to disk
    std::uint64_t compactions = 0;  // segment rewrites
    std::uint64_t evictions = 0;    // live records dropped by the size budget
    std::uint64_t torn_dropped = 0; // torn tail records truncated at open()
};

class EvalStore {
public:
    // Opens (creating if needed) the store directory and loads the index.
    // Throws std::runtime_error on I/O failure or mid-file corruption; a torn
    // tail record in the last segment is truncated, not an error.
    explicit EvalStore(EvalStoreConfig config);
    ~EvalStore();  // flushes pending writes (errors swallowed)

    EvalStore(const EvalStore&) = delete;
    EvalStore& operator=(const EvalStore&) = delete;

    // Stable 64-bit namespace key for a context string such as
    // "router/freq_mhz".  Results for different IPs/metrics live in different
    // namespaces of the same store directory.
    static std::uint64_t namespace_key(std::string_view context);

    // Both paths take `genome_key` == genome.key(), the hash the evaluation
    // pipeline already computed for the wave.

    // Read path: shared-lock index probe, no I/O.  Verifies the stored genome
    // gene-for-gene (64-bit keys can collide); a mismatch is a miss.
    std::optional<StoredResult> lookup(std::uint64_t ns, const Genome& genome,
                                       std::uint64_t genome_key) const;

    // Write path: updates the index immediately (visible to readers) and
    // queues the record for the next append batch.  Re-inserting an identical
    // record is a no-op; a different result for the same key supersedes.
    void insert(std::uint64_t ns, const Genome& genome, std::uint64_t genome_key,
                StoredResult result);

    // Append queued records to the active segment (fsync'd when configured).
    void flush();

    // Rewrite live records into a single fresh segment, dropping superseded
    // duplicates and evicting oldest-first past `max_bytes`.
    void compact();

    std::size_t records() const;     // live records in the index
    std::uint64_t live_bytes() const;  // encoded size of live records
    EvalStoreCounters counters() const;
    const std::string& path() const { return config_.path; }

    // Mirror hit/miss/write/compaction counters and record/byte gauges into a
    // MetricsRegistry (names under "store.") for /metrics and /status.
    void attach_metrics(const std::shared_ptr<obs::MetricsRegistry>& metrics);

private:
    struct Record {
        std::uint64_t ns = 0;
        std::vector<std::uint32_t> genes;
        StoredResult result;
        std::uint64_t seq = 0;    // insertion order; eviction drops lowest
        std::uint64_t bytes = 0;  // encoded line size including newline
    };

    std::string segment_path(const std::string& name) const;
    std::string manifest_path() const;
    void write_manifest_locked();
    void load_segment(const std::string& name, bool last);
    void apply_record(std::uint64_t key, Record record);
    void roll_segment_locked();
    void compact_locked();
    void maybe_compact_locked();
    void update_gauges();

    EvalStoreConfig config_;

    // Index state: shared lock for lookup, unique lock for mutation.
    mutable std::shared_mutex mutex_;
    std::unordered_map<std::uint64_t, Record> index_;
    std::vector<std::string> pending_;  // encoded lines not yet on disk
    std::uint64_t seq_ = 0;
    std::uint64_t live_bytes_ = 0;

    // Disk state: guarded by io_mutex_ (taken before mutex_ when both).
    std::mutex io_mutex_;
    std::vector<std::string> segments_;
    std::uint64_t segment_counter_ = 0;   // highest segment number in use
    std::uint64_t active_bytes_ = 0;      // size of the active (last) segment
    std::uint64_t disk_records_ = 0;      // records across all segments
    std::uint64_t disk_bytes_ = 0;        // bytes across all segments

    // Counters are atomics so the shared-lock read path can bump hits/misses.
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> writes_{0};
    std::atomic<std::uint64_t> flushes_{0};
    std::atomic<std::uint64_t> compactions_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> torn_dropped_{0};

    // Optional metrics mirror (registry kept alive by the shared_ptr).
    std::shared_ptr<obs::MetricsRegistry> metrics_;
    obs::Counter* m_hits_ = nullptr;
    obs::Counter* m_misses_ = nullptr;
    obs::Counter* m_writes_ = nullptr;
    obs::Counter* m_compactions_ = nullptr;
    obs::Counter* m_evictions_ = nullptr;
    obs::Gauge* m_records_ = nullptr;
    obs::Gauge* m_bytes_ = nullptr;
};

}  // namespace nautilus
