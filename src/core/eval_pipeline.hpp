#pragma once
// The evaluation pipeline every search engine charges its queries through.
//
// The paper charges a design-space query by its *distinct* evaluations; a
// revisit is free (section 4.2).  EvalPipeline<Value> owns the whole stack
// that implements that accounting, once, for all five engines:
//
//   BatchEvaluator          fans a wave of genomes out over the worker pool
//     memo cache            BasicCachingEvaluator: charges distinct misses,
//                           dedups in-flight genomes across threads
//       persistent store    EvalStore: answers memo misses across runs
//         fault guard       FaultTolerantEvaluator: retry, watchdog,
//                           quarantine-with-penalty
//           EvalFn          the raw design-point evaluation
//
// Store policy: a store hit is still a memo miss (one distinct evaluation),
// so every determinism-gated counter is identical cold vs warm; only the
// guard's `attempts` shrink, giving attempts + store_hits == fresh + retries.
// Penalized results are per-run policy, not ground truth, and are never
// written to the store.  Records whose shape does not fit the engine (wrong
// arity) are treated as misses and recomputed.
//
// RunScope, below, owns the run lifecycle around the pipeline: the
// `<engine>.runs` counter, progress start/end, run_start/run_end trace
// events with their common fields, the `<engine>.run` span and checkpoint
// events.  Engines append only their own fields.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_evaluator.hpp"
#include "core/eval_store.hpp"
#include "core/evaluator.hpp"
#include "core/fault.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace nautilus {

// The evaluation settings every engine config inherits.  None of them
// changes search results: those are bit-for-bit identical for any worker
// count, with or without tracing, a store or retries that succeed.
struct EvalPipelineConfig {
    // Threads evaluating each wave concurrently (1 = serial).  The wave size
    // (a GA population, say) caps the useful parallelism (paper section 2).
    std::size_t eval_workers = 1;
    // Tracing + metrics (off by default; DESIGN.md section 7).
    obs::Instrumentation obs;
    // Retry, watchdog and quarantine policy (DESIGN.md section 8).
    FaultPolicy fault;
    // Cross-run persistent store (core/eval_store.hpp), consulted below the
    // memo cache and above the fault guard.  Excluded from checkpoint
    // fingerprints: a run may resume with or without a store attached.
    std::shared_ptr<EvalStore> store;
    std::uint64_t store_namespace = 0;  // EvalStore::namespace_key(...)

    // Throws std::invalid_argument naming `owner` on bad settings.
    void validate_eval(const char* owner) const
    {
        if (eval_workers == 0)
            throw std::invalid_argument(std::string{owner} + ": eval_workers must be >= 1");
        fault.validate();
    }
};

// Checkpoint/resume and cancellation settings of the generational engines
// (GaConfig, MultiObjectiveConfig); see DESIGN.md section 8.
struct CheckpointConfig {
    // Cooperative cancellation (the job server's DELETE /jobs/<id>).  When
    // set and observed true at a generation boundary, the run checkpoints
    // (when checkpoint_path is set) and stops with `halted` set, exactly like
    // halt_at_generation, so a cancelled job resumes bit-exactly.  Excluded
    // from config fingerprints, like the store.
    std::shared_ptr<const std::atomic<bool>> cancel;

    // When `checkpoint_path` is set, the full run state is written there
    // atomically every `checkpoint_every` generations.  `halt_at_generation`
    // (when nonzero) checkpoints at that generation and stops the run with
    // `halted` set -- a deterministic stand-in for "the process was killed"
    // (`nautilus_cli --die-at-gen`).
    std::string checkpoint_path;
    std::size_t checkpoint_every = 1;
    std::size_t halt_at_generation = 0;  // 0 = never halt

    // Throws std::invalid_argument naming `owner` on bad settings.
    void validate_checkpoint(const char* owner) const
    {
        if (checkpoint_every == 0)
            throw std::invalid_argument(std::string{owner} + ": checkpoint_every must be >= 1");
        if (halt_at_generation != 0 && checkpoint_path.empty())
            throw std::invalid_argument(std::string{owner} +
                                        ": halt_at_generation requires checkpoint_path");
    }
};

// NSGA-II's per-design result: one value per objective, nullopt when the
// design is infeasible.
using ObjectiveValues = std::optional<std::vector<double>>;

// StoredResult <-> Value.  decode() returns nullopt for a record of the
// wrong shape, which the pipeline treats as a store miss.
template <typename Value>
struct StoreCodec;

template <>
struct StoreCodec<Evaluation> {
    static StoredResult encode(const Evaluation& e) { return {e.feasible, {e.value}}; }
    static std::optional<Evaluation> decode(StoredResult r, std::size_t arity)
    {
        if (r.values.size() != arity) return std::nullopt;
        return Evaluation{r.feasible, r.values.front()};
    }
};

template <>
struct StoreCodec<ObjectiveValues> {
    static StoredResult encode(const ObjectiveValues& v)
    {
        return StoredResult{v.has_value(), v ? *v : std::vector<double>{}};
    }
    static std::optional<ObjectiveValues> decode(StoredResult r, std::size_t arity)
    {
        if (!r.feasible && r.values.empty()) return ObjectiveValues{};
        if (r.feasible && r.values.size() == arity) return ObjectiveValues{std::move(r.values)};
        return std::nullopt;
    }
};

// Checkpointable pipeline state: the memo cache with its counters, and the
// fault guard's quarantine list and counters.  GaCheckpoint and
// Nsga2Checkpoint both carry it.
template <typename Value>
struct EvalState {
    std::vector<std::pair<Genome, Value>> cache;  // sorted by genome key, then genes
    std::size_t distinct = 0;
    std::size_t calls = 0;
    std::vector<std::uint64_t> quarantine;
    FaultCounters fault;
};

// Everything the pipeline counted during a run.
struct EvalCounters {
    std::size_t distinct = 0;        // memo misses: the paper's cost
    std::size_t calls = 0;           // memo lookups, hits included
    std::size_t inflight_waits = 0;  // lookups that waited on another thread
    std::size_t store_hits = 0;      // memo misses answered by the store
    std::size_t store_misses = 0;    // memo misses paid fresh (store attached)
    FaultCounters fault;             // guard attempts, retries, quarantines
    double eval_seconds = 0.0;       // wall-clock inside evaluation waves
    std::size_t workers = 1;

    // Copy into an engine result (RunResult, MultiObjectiveResult).
    template <typename Result>
    void copy_to(Result& r) const
    {
        r.distinct_evals = distinct;
        r.total_eval_calls = calls;
        r.eval_seconds = eval_seconds;
        r.eval_workers = workers;
        r.fault = fault;
        r.store_hits = store_hits;
        r.store_misses = store_misses;
    }
};

template <typename Value>
class EvalPipeline {
public:
    using Fn = std::function<Value(const Genome&)>;

    // `penalty` is served for quarantined designs; `arity` is the objective
    // count a stored record must carry.
    EvalPipeline(Fn fn, const EvalPipelineConfig& config, Value penalty, std::size_t arity = 1)
        : guard_{std::move(fn), config.fault, std::move(penalty)},
          cache_{[this](const Genome& g, std::uint64_t key) { return miss(g, key); }},
          batch_{config.eval_workers},
          store_{config.store.get()},
          store_namespace_{config.store_namespace},
          arity_{arity}
    {
        guard_.set_instrumentation(config.obs);
        batch_.set_instrumentation(config.obs);
    }

    EvalPipeline(const EvalPipeline&) = delete;
    EvalPipeline& operator=(const EvalPipeline&) = delete;

    // Evaluate genomes[i] into out[i] as one wave across the pool.
    void evaluate(std::span<const Genome> genomes, std::span<Value> out)
    {
        batch_.evaluate(cache_, genomes, out);
    }

    Value evaluate(const Genome& genome)
    {
        Value out;
        evaluate(std::span<const Genome>{&genome, 1}, std::span<Value>{&out, 1});
        return out;
    }

    std::size_t distinct() const { return cache_.distinct_evaluations(); }
    bool has_store() const { return store_ != nullptr; }

    EvalCounters counters() const
    {
        EvalCounters c;
        c.distinct = cache_.distinct_evaluations();
        c.calls = cache_.total_calls();
        c.inflight_waits = cache_.inflight_waits();
        c.store_hits = store_hits_.load(std::memory_order_relaxed);
        c.store_misses = store_misses_.load(std::memory_order_relaxed);
        c.fault = guard_.counters();
        c.eval_seconds = batch_.eval_seconds();
        c.workers = batch_.workers();
        return c;
    }

    // Must not race with evaluate(); engines checkpoint between waves.
    void snapshot(EvalState<Value>& s) const
    {
        typename BasicCachingEvaluator<Value>::Snapshot snap = cache_.snapshot();
        s.cache = std::move(snap.entries);
        s.distinct = snap.distinct;
        s.calls = snap.calls;
        s.quarantine = guard_.quarantined_keys();
        s.fault = guard_.counters();
    }

    void restore(const EvalState<Value>& s)
    {
        cache_.restore({s.cache, s.distinct, s.calls});
        guard_.restore(s.quarantine, s.fault);
    }

private:
    // A memo miss: the store first, then the guarded evaluation.  `key` is
    // g.key(), computed once by the wave.
    Value miss(const Genome& g, std::uint64_t key)
    {
        if (store_ != nullptr) {
            if (std::optional<StoredResult> hit = store_->lookup(store_namespace_, g, key)) {
                if (std::optional<Value> v = StoreCodec<Value>::decode(std::move(*hit), arity_)) {
                    store_hits_.fetch_add(1, std::memory_order_relaxed);
                    return std::move(*v);
                }
            }
        }
        EvalOutcome outcome;
        Value v = guard_.evaluate(g, key, &outcome);
        if (store_ != nullptr) {
            store_misses_.fetch_add(1, std::memory_order_relaxed);
            if (!outcome.penalized)
                store_->insert(store_namespace_, g, key, StoreCodec<Value>::encode(v));
        }
        return v;
    }

    FaultTolerantEvaluator<Value> guard_;
    BasicCachingEvaluator<Value> cache_;
    BatchEvaluator batch_;
    EvalStore* store_;
    std::uint64_t store_namespace_;
    std::size_t arity_;
    std::atomic<std::size_t> store_hits_{0};
    std::atomic<std::size_t> store_misses_{0};
};

// Appends an engine's own fields to a run_start or run_end event.
using TraceFields = std::function<void(obs::TraceEvent&)>;

// One run's lifecycle.  Construction counts `<engine>.runs`, starts the
// progress tracker over `units` (generations or the distinct-eval budget),
// emits run_start and opens the `<engine>.run` span, which closes when the
// scope is destroyed.  run_start carries engine, seed, workers, the engine's
// fields, the resume accounting when `resumed_at` names the generation a
// checkpointed run restarts at, and the run tags.  finish() ends progress
// and emits run_end.  Pure observation: no RNG draws.
class RunScope {
public:
    template <typename Value>
    RunScope(const char* engine, const obs::Instrumentation& inst,
             const EvalPipeline<Value>& pipe, std::uint64_t seed, std::size_t units,
             const TraceFields& fields, std::optional<std::size_t> resumed_at = std::nullopt,
             const CheckpointConfig* checkpoints = nullptr)
        : engine_(engine), inst_(inst), checkpoints_(checkpoints)
    {
        const std::string name{engine};
        if (obs::MetricsRegistry* reg = inst_.registry()) {
            reg->counter(name + ".runs").add();
            if (checkpoints_ != nullptr && !checkpoints_->checkpoint_path.empty())
                m_checkpoints_ = &reg->counter("checkpoint.writes");
        }
        if (obs::ProgressTracker* p = progress())
            p->on_run_start(name, units, resumed_at.value_or(0));
        if (inst_.tracing()) {
            const EvalCounters at_start = pipe.counters();
            obs::TraceEvent ev{"run_start"};
            ev.add("engine", engine)
                .add("seed", static_cast<std::size_t>(seed))
                .add("workers", at_start.workers);
            fields(ev);
            if (resumed_at) {
                ev.add("resumed", obs::FieldValue{true})
                    .add("start_generation", *resumed_at)
                    .add("distinct_at_start", at_start.distinct)
                    .add("attempts_at_start", std::size_t{at_start.fault.attempts})
                    .add("retries_at_start", std::size_t{at_start.fault.retries});
            }
            for (const auto& [key, value] : inst_.run_tags) ev.add(key, value);
            inst_.tracer.emit(std::move(ev));
        }
        span_.emplace(inst_.tracer, name + ".run");
    }

    RunScope(const RunScope&) = delete;
    RunScope& operator=(const RunScope&) = delete;

    obs::ProgressTracker* progress() const { return inst_.progress_tracker(); }

    // At the top of generation `gen` of a run that began at `start`: calls
    // `write(gen)` when a checkpoint is due and returns true when the run
    // halts here (halt_at_generation or a tripped cancel token).  Neither
    // happens before the run has progressed past `start`, so a
    // cancel/resubmit cycle always advances.
    template <typename Write>
    bool halts_at(std::size_t gen, std::size_t start, Write&& write) const
    {
        const CheckpointConfig& c = *checkpoints_;
        if (gen == start) return false;
        const bool halt = (c.halt_at_generation != 0 && gen == c.halt_at_generation) ||
                          (c.cancel != nullptr && c.cancel->load(std::memory_order_acquire));
        if (!c.checkpoint_path.empty() && (gen % c.checkpoint_every == 0 || halt)) write(gen);
        return halt;
    }

    // Record a checkpoint of `generation` written to the checkpoint path.
    void checkpointed(std::size_t generation, std::size_t cache, std::size_t quarantined) const
    {
        if (m_checkpoints_ != nullptr) m_checkpoints_->add();
        if (!inst_.tracing()) return;
        obs::TraceEvent ev{"checkpoint"};
        ev.add("engine", engine_)
            .add("path", checkpoints_->checkpoint_path.c_str())
            .add("generation", generation)
            .add("cache", cache)
            .add("quarantined", quarantined);
        inst_.tracer.emit(std::move(ev));
    }

    // run_end: engine, the memo counters, the engine's fields, eval_seconds,
    // the fault counters and, with a store attached, store hits/misses.
    template <typename Value>
    void finish(const EvalPipeline<Value>& pipe, const TraceFields& fields) const
    {
        if (obs::ProgressTracker* p = progress()) p->on_run_end();
        if (!inst_.tracing()) return;
        const EvalCounters c = pipe.counters();
        obs::TraceEvent ev{"run_end"};
        ev.add("engine", engine_)
            .add("distinct_evals", c.distinct)
            .add("total_calls", c.calls)
            .add("inflight_waits", c.inflight_waits);
        fields(ev);
        ev.add("eval_seconds", obs::FieldValue{c.eval_seconds})
            .add("attempts", std::size_t{c.fault.attempts})
            .add("retries", std::size_t{c.fault.retries})
            .add("eval_failures", std::size_t{c.fault.failures})
            .add("eval_timeouts", std::size_t{c.fault.timeouts})
            .add("quarantined", std::size_t{c.fault.quarantined})
            .add("penalties", std::size_t{c.fault.penalties});
        if (pipe.has_store())
            ev.add("store_hits", c.store_hits).add("store_misses", c.store_misses);
        inst_.tracer.emit(std::move(ev));
    }

private:
    const char* engine_;
    const obs::Instrumentation& inst_;
    const CheckpointConfig* checkpoints_;
    obs::Counter* m_checkpoints_ = nullptr;
    std::optional<obs::ScopedTimer> span_;
};

}  // namespace nautilus
