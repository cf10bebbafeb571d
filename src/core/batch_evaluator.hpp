#pragma once
// Parallel batch evaluation of design points.
//
// The paper's cost model is explicitly parallel: each design point costs
// "minutes to hours" of CAD runtime, the characterization cluster ran "200+
// cores ... for about 2 weeks", and "the population size effectively caps
// the available parallelism during the evaluation phase" (section 2).
// BatchEvaluator is the in-process analogue of that cluster: a persistent
// thread pool that fans one generation's evaluations out across workers
// while all genetic randomness stays in the caller's breeding loop.
//
// Determinism contract: results are bit-for-bit independent of the worker
// count.  Only the evaluation of already-chosen genomes is parallelized;
// which genomes get evaluated, and in what logical order results are
// consumed, is decided single-threaded by the engine.  Combined with
// BasicCachingEvaluator's in-flight deduplication, distinct_evaluations()
// is identical to a serial run (see DESIGN.md, "Evaluation pipeline").

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "core/evaluator.hpp"
#include "core/genome.hpp"
#include "obs/obs.hpp"

namespace nautilus {

class BatchEvaluator {
public:
    // `workers` is the total evaluation concurrency; the calling thread
    // participates, so `workers - 1` pool threads are spawned.  0 or 1 means
    // fully serial (no threads, no locking on the hot path).
    explicit BatchEvaluator(std::size_t workers = 1);
    ~BatchEvaluator();

    BatchEvaluator(const BatchEvaluator&) = delete;
    BatchEvaluator& operator=(const BatchEvaluator&) = delete;

    std::size_t workers() const { return workers_; }

    // Attach tracing + metrics.  With a live tracer every evaluate() call
    // emits one "eval_wave" event (wave size, wall/busy seconds, fresh vs.
    // cached counts, in-flight dedup waits, cumulative accounting); with a
    // registry the eval.* counters/histograms are updated.  Handles are
    // resolved here, once, so the per-wave cost is a few relaxed atomics.
    void set_instrumentation(obs::Instrumentation inst);

    // Evaluate genomes[i] into out[i] through the shared cache.  Duplicate
    // genomes within the batch are computed once (in-flight dedup).  Blocks
    // until the whole batch is done; exceptions from the evaluation function
    // are rethrown here after the batch drains.
    template <typename Value>
    void evaluate(BasicCachingEvaluator<Value>& evaluator, std::span<const Genome> genomes,
                  std::span<Value> out)
    {
        if (out.size() < genomes.size())
            throw std::invalid_argument("BatchEvaluator::evaluate: output span too small");
        const bool instrumented = inst_.tracing() || inst_.registry() != nullptr;
        obs::ProgressTracker* progress = inst_.progress_tracker();
        // The engine evaluates one wave at a time, so the memo's distinct
        // count grows by exactly this wave's cache misses.
        const bool counting = instrumented || progress != nullptr;
        const std::size_t distinct_before = counting ? evaluator.distinct_evaluations() : 0;
        const std::size_t waits_before = instrumented ? evaluator.inflight_waits() : 0;
        const auto start = std::chrono::steady_clock::now();
        std::atomic<std::uint64_t> busy_ns{0};
        run_batch(genomes.size(), [&](std::size_t i) {
            const auto item_start = instrumented ? std::chrono::steady_clock::now()
                                                 : std::chrono::steady_clock::time_point{};
            // The slot's one hash, taken outside the memo lock and handed
            // down to the store and the guard.
            out[i] = evaluator.evaluate(genomes[i], genomes[i].key());
            if (instrumented)
                busy_ns.fetch_add(static_cast<std::uint64_t>(
                                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - item_start)
                                          .count()),
                                  std::memory_order_relaxed);
        });
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        eval_seconds_ += seconds;
        if (!counting) return;
        const std::size_t distinct_total = evaluator.distinct_evaluations();
        const std::size_t fresh = distinct_total - distinct_before;
        if (progress != nullptr) progress->on_wave(genomes.size(), fresh, seconds);
        if (instrumented) {
            WaveRecord wave;
            wave.size = genomes.size();
            wave.fresh = fresh;
            wave.waits = evaluator.inflight_waits() - waits_before;
            wave.seconds = seconds;
            wave.busy_seconds = static_cast<double>(busy_ns.load()) * 1e-9;
            wave.distinct_total = distinct_total;
            wave.calls_total = evaluator.total_calls();
            record_wave(wave);
        }
    }

    // Cumulative measured wall-clock spent inside evaluate() calls.
    double eval_seconds() const { return eval_seconds_; }

private:
    struct Pool;  // persistent worker threads (absent when workers <= 1)

    // One evaluate() call's accounting, for the trace/metrics layer.
    struct WaveRecord {
        std::size_t size = 0;           // genomes in the wave
        std::size_t fresh = 0;          // cache misses charged to this wave
        std::size_t waits = 0;          // in-flight dedup waits in this wave
        double seconds = 0.0;           // wall-clock of the wave
        double busy_seconds = 0.0;      // summed per-item execution time
        std::size_t distinct_total = 0; // evaluator cumulative distinct
        std::size_t calls_total = 0;    // evaluator cumulative calls
    };

    // Run item(0..count-1) across the pool; the caller participates.  The
    // first exception thrown by any item is rethrown once all items finish.
    void run_batch(std::size_t count, const std::function<void(std::size_t)>& item);

    void record_wave(const WaveRecord& wave);

    std::size_t workers_;
    Pool* pool_ = nullptr;
    double eval_seconds_ = 0.0;

    obs::Instrumentation inst_;
    std::size_t wave_seq_ = 0;
    // Metric handles resolved once in set_instrumentation (null = no registry).
    obs::Counter* m_waves_ = nullptr;
    obs::Counter* m_items_ = nullptr;
    obs::Counter* m_fresh_ = nullptr;
    obs::Counter* m_hits_ = nullptr;
    obs::Counter* m_waits_ = nullptr;
    obs::Histogram* m_wave_seconds_ = nullptr;
};

}  // namespace nautilus
