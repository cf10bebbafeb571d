#pragma once
// NSGA-II style multi-objective guided GA.
//
// The paper's related work contrasts Nautilus's query-at-a-time model with
// active-learning methods that map the whole Pareto-optimal set.  This
// engine covers the middle ground natively: a non-dominated-sorting GA
// (fast non-dominated sort + crowding distance, Deb et al. 2002) that
// shares Nautilus's genome representation, hint-aware mutation and
// distinct-evaluation cost accounting, so an IP author's hints accelerate
// frontier mapping the same way they accelerate single-metric queries.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/eval_pipeline.hpp"
#include "core/genome.hpp"
#include "core/hints.hpp"
#include "core/operators.hpp"
#include "core/pareto.hpp"

namespace nautilus {

struct Nsga2Checkpoint;  // core/checkpoint.hpp

// Multi-objective evaluation: objective values in natural units, or nullopt
// for infeasible configurations.  Must be deterministic per genome.
using MultiEvalFn = std::function<ObjectiveValues(const Genome&)>;

// Evaluation settings come from EvalPipelineConfig (the fault penalty is
// always "infeasible": a quarantined design never joins the pool or the
// archive); checkpoint and cancel settings from CheckpointConfig.
struct MultiObjectiveConfig : EvalPipelineConfig, CheckpointConfig {
    std::size_t population_size = 24;
    std::size_t generations = 40;
    double mutation_rate = 0.1;
    double crossover_rate = 0.9;
    CrossoverKind crossover = CrossoverKind::single_point;
    std::uint64_t seed = 1;

    void validate() const;
};

struct FrontPoint {
    Genome genome;
    std::vector<double> values;
};

struct MultiObjectiveResult {
    // Non-dominated set over everything evaluated during the run.
    std::vector<FrontPoint> front;
    std::size_t distinct_evals = 0;
    std::size_t total_eval_calls = 0;  // including cache hits
    double eval_seconds = 0.0;         // measured wall-clock spent evaluating
    std::size_t eval_workers = 1;
    bool halted = false;               // stopped by halt_at_generation
    std::size_t start_generation = 0;  // nonzero when resumed from a checkpoint
    FaultCounters fault;               // attempts == distinct evals + retries
    std::size_t store_hits = 0;        // memo misses answered by the store
    std::size_t store_misses = 0;      // memo misses paid fresh
};

class Nsga2Engine {
public:
    // `directions` gives the optimization sense per objective; `hints` uses
    // the usual conventions (bias > 0 favors upward moves) -- pass
    // HintSet::none for the unguided variant.
    Nsga2Engine(const ParameterSpace& space, MultiObjectiveConfig config,
                std::vector<Direction> directions, MultiEvalFn eval, HintSet hints);

    const MultiObjectiveConfig& config() const { return config_; }
    std::span<const Direction> directions() const { return directions_; }

    MultiObjectiveResult run(std::uint64_t seed) const;
    MultiObjectiveResult run() const { return run(config_.seed); }

    // Resume a checkpointed run; same contract as GaEngine::resume (config
    // fingerprint validated, result bit-for-bit equal to an uninterrupted
    // run at any eval_workers count).
    MultiObjectiveResult resume(const std::string& checkpoint_path) const;

    // Fingerprint of everything resume-determinism depends on.
    std::uint64_t config_fingerprint(std::uint64_t seed) const;

private:
    MultiObjectiveResult run_impl(std::uint64_t seed, const Nsga2Checkpoint* restored) const;

    const ParameterSpace& space_;
    MultiObjectiveConfig config_;
    std::vector<Direction> directions_;
    MultiEvalFn eval_;
    HintSet hints_;
};

// The ranking of one NSGA-II pool (DESIGN.md section 10).  A run owns one and
// reuses it for both rankings of every generation, so once the buffers have
// grown to the largest pool nothing here allocates.
//
// Row i of an n x M buffer holds member i's objective values, folded so that
// smaller is better in every column (maximize objectives negated once): the
// dominance test is a plain `<=` over two rows.
class PoolRanking {
public:
    explicit PoolRanking(std::span<const Direction> directions);

    // Empty the pool, then append members in pool order.  `values` must have
    // one entry per objective.
    void clear();
    void add(std::span<const double> values);

    // Fast non-dominated sort (Deb et al. 2002): partitions the pool into
    // fronts (rank 0 = the Pareto front).  Front 0 lists its members in pool
    // order; each later front lists them in the order the breadth-first peel
    // releases them.  A front() span is valid until the next sort.
    void non_dominated_sort();
    std::size_t front_count() const { return offsets_.size() - 1; }
    std::span<const std::size_t> front(std::size_t f) const
    {
        return std::span<const std::size_t>{members_}.subspan(
            offsets_[f], offsets_[f + 1] - offsets_[f]);
    }

    // Crowding distance of each member of `front` (pool indices), written to
    // `distance` in the same order.  Boundary points get +infinity; fronts
    // of one or two members are all +infinity.
    void crowding_distance(std::span<const std::size_t> front, std::span<double> distance);

private:
    std::vector<bool> negated_;  // per objective: maximize, stored negated
    std::size_t rows_ = 0;
    std::vector<double> values_;                // rows_ x objectives, folded
    std::vector<std::size_t> dominated_;        // rows_ x rows_: row i lists whom i dominates
    std::vector<std::size_t> dominated_len_;    // used length of each row of dominated_
    std::vector<std::size_t> domination_count_; // how many members dominate each one
    std::vector<std::size_t> members_;          // every front, concatenated
    std::vector<std::size_t> offsets_{0};       // front f is members_[offsets_[f], offsets_[f + 1])
    std::vector<double> column_;                // crowding: one objective of the front, raw
    std::vector<std::size_t> order_;            // crowding: front positions by column_
};

}  // namespace nautilus
