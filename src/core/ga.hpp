#pragma once
// The genetic algorithm engine.
//
// One engine serves both roles in the paper: with HintSet::none it is the
// *baseline GA* (PyEvolve-style defaults: population 10, per-gene mutation
// rate 0.1, 80 generations); with author hints and nonzero confidence it is
// *Nautilus*.  The evaluation cost model (distinct synthesized designs) is
// delegated to the evaluation pipeline (core/eval_pipeline.hpp).

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/eval_pipeline.hpp"
#include "core/fitness.hpp"
#include "core/genome.hpp"
#include "core/hints.hpp"
#include "core/operators.hpp"
#include "core/run_stats.hpp"
#include "core/selection.hpp"

namespace nautilus {

struct GaCheckpoint;  // core/checkpoint.hpp

// Evaluation settings (workers, tracing, faults, store) come from
// EvalPipelineConfig; checkpoint and cancel settings from CheckpointConfig.
struct GaConfig : EvalPipelineConfig, CheckpointConfig {
    std::size_t population_size = 10;   // paper section 4.1
    std::size_t generations = 80;       // paper section 4.1
    double mutation_rate = 0.1;         // per-gene, paper section 4.1
    double crossover_rate = 0.9;
    CrossoverKind crossover = CrossoverKind::single_point;
    // Fitness-proportional selection matches the PyEvolve-era baseline the
    // paper modified; rank/tournament are stronger modern alternatives.
    SelectionConfig selection{SelectionKind::roulette, 1.8, 2};
    std::size_t elitism = 1;            // best members copied unchanged
    std::uint64_t seed = 1;

    // Early termination.  The paper's usage scenario wants "a good design
    // point that is within some threshold of what the IP generator can
    // offer" -- once that is met, further synthesis jobs are waste.
    std::optional<double> target_value;  // stop when best-so-far reaches this
    // Stop after this many consecutive generations without best-so-far
    // improvement (0 = run all generations).
    std::size_t stall_generations = 0;

    // With fault.tolerate_failures on, evaluations that still fail after the
    // retry ladder are quarantined and answered with this penalty
    // (infeasible by default) instead of aborting the run.
    Evaluation fault_penalty{false, 0.0};

    void validate() const;  // throws std::invalid_argument on bad settings
};

struct GenerationStats {
    std::size_t generation = 0;
    double best = 0.0;            // best fitness-feasible value this generation
    double mean = 0.0;            // mean over feasible members
    double worst = 0.0;
    std::size_t feasible = 0;     // feasible members this generation
    double best_so_far = 0.0;     // best value seen in the whole run
    std::size_t distinct_evals = 0;  // cumulative synthesis jobs
};

struct RunResult {
    std::vector<GenerationStats> history;
    Genome best_genome;
    Evaluation best_eval;
    std::size_t distinct_evals = 0;
    std::size_t total_eval_calls = 0;  // including cache hits
    Curve curve;  // best-so-far vs distinct evaluations
    bool hit_target = false;     // stopped because target_value was reached
    bool stalled = false;        // stopped by the stall_generations criterion
    bool halted = false;         // stopped by halt_at_generation (checkpointed)
    double eval_seconds = 0.0;   // measured wall-clock spent evaluating
    std::size_t eval_workers = 1;  // parallelism the run evaluated with
    std::size_t start_generation = 0;  // nonzero when resumed from a checkpoint

    // End-of-run engine state, for resume-determinism auditing: a resumed
    // run must reproduce these bit-for-bit.
    std::vector<Genome> final_population;
    std::array<std::uint64_t, 4> final_rng_state{};

    // Fault-tolerance accounting (attempts == distinct evals + retries;
    // with a store attached, attempts == distinct - store_hits + retries).
    FaultCounters fault;

    // Persistent-store accounting for this run (both 0 when no store is
    // attached): memo misses answered by the store vs. paid fresh.
    std::size_t store_hits = 0;
    std::size_t store_misses = 0;

    RunResult() : curve(Direction::maximize) {}
    explicit RunResult(Direction dir) : curve(dir) {}
};

// Aggregate evaluation-pipeline accounting over one or more runs, surfaced
// by run_many() and printed in end-of-run summaries (CLI, experiments).
struct EvalSummary {
    double eval_seconds = 0.0;
    std::size_t eval_workers = 1;
    std::size_t distinct_evals = 0;   // synthesis jobs (the paper's cost)
    std::size_t total_calls = 0;      // all evaluate() calls incl. cache hits
    std::size_t runs = 0;
    std::size_t store_hits = 0;       // memo misses answered by the store
    std::size_t store_misses = 0;     // memo misses paid fresh

    void absorb(const RunResult& r)
    {
        eval_seconds += r.eval_seconds;
        eval_workers = r.eval_workers;
        distinct_evals += r.distinct_evals;
        total_calls += r.total_eval_calls;
        store_hits += r.store_hits;
        store_misses += r.store_misses;
        ++runs;
    }

    // Fraction of memo misses the persistent store answered (0 when no
    // store was attached).
    double store_hit_rate() const
    {
        const std::size_t probes = store_hits + store_misses;
        return probes == 0 ? 0.0 : static_cast<double>(store_hits) / probes;
    }

    // Fraction of calls answered from the memoization cache.
    double cache_hit_rate() const
    {
        if (total_calls == 0) return 0.0;
        return 1.0 - static_cast<double>(distinct_evals) / static_cast<double>(total_calls);
    }
};

class GaEngine {
public:
    // `hints` must validate against `space`; pass HintSet::none(space) for
    // the baseline GA.  The engine owns no evaluator state between runs:
    // each run() creates a fresh cache, so costs are per-query as in the
    // paper.
    GaEngine(const ParameterSpace& space, GaConfig config, Direction direction, EvalFn eval,
             HintSet hints);

    const GaConfig& config() const { return config_; }
    Direction direction() const { return direction_; }
    const HintSet& hints() const { return hints_; }

    // Seed part of the initial population with known configurations (e.g.
    // the IP's shipped default, or the best points of a previous query).
    // At most population_size genomes are used; the rest stay random.
    // Throws if any genome is incompatible with the space.
    void seed_population(std::vector<Genome> seeds);
    const std::vector<Genome>& seeds() const { return seeds_; }

    // Run once with the config seed.
    RunResult run() const;

    // Run once with an explicit seed (overrides config.seed).
    RunResult run(std::uint64_t seed) const;

    // Resume a checkpointed run.  The engine must be constructed over the
    // same space/config/hints the checkpoint was written with (validated by
    // a config fingerprint; throws std::runtime_error on mismatch).  The
    // returned result -- history, curve, best genome, final population, RNG
    // state, distinct-eval counts -- is bit-for-bit identical to a run that
    // was never interrupted, at any eval_workers count.
    RunResult resume(const std::string& checkpoint_path) const;

    // Fingerprint of everything resume-determinism depends on: the space
    // shape, the determinism-relevant config fields, the hints and the run
    // seed.  Stored in checkpoints and compared on resume.
    std::uint64_t config_fingerprint(std::uint64_t seed) const;

    // `count` independent runs with seeds derived from config.seed, averaged
    // into a MultiRunCurve (the paper averages 20-40 runs per experiment).
    // When `summary` is non-null it receives the aggregate evaluation
    // accounting (wall-clock, distinct vs. total calls) across all runs.
    MultiRunCurve run_many(std::size_t count, EvalSummary* summary = nullptr) const;

private:
    RunResult run_impl(std::uint64_t seed, const GaCheckpoint* restored) const;

    const ParameterSpace& space_;
    GaConfig config_;
    Direction direction_;
    EvalFn eval_;
    HintSet hints_;
    std::vector<Genome> seeds_;
};

}  // namespace nautilus
