#pragma once
// Local-search comparators: simulated annealing and stochastic hill
// climbing.
//
// The paper positions GAs within a family of stochastic methods (simulated
// annealing has "long been used in physical design automation", section 5).
// These engines share the GA's genome representation, evaluation/cost
// accounting and -- optionally -- the Nautilus hint machinery: the neighbor
// proposal distribution reuses the same hint-aware mutation operator, so
// "guided SA" is a meaningful ablation of guided-GA's population mechanics.

#include <cstdint>

#include "core/eval_pipeline.hpp"
#include "core/fitness.hpp"
#include "core/hints.hpp"
#include "core/operators.hpp"
#include "core/run_stats.hpp"

namespace nautilus {

// Evaluation settings come from EvalPipelineConfig; the accept/reject walk
// itself is sequential, so workers only fan out the temperature probes.
struct AnnealingConfig : EvalPipelineConfig {
    std::size_t max_distinct_evals = 800;  // same budget axis as the GA benches
    double initial_temperature = 0.0;      // 0 = auto-calibrate from first samples
    double cooling = 0.97;                 // geometric cooling per accepted batch
    std::size_t steps_per_temperature = 10;
    double mutation_rate = 0.4;            // per-gene proposal probability
    std::uint64_t seed = 11;
    Evaluation fault_penalty{false, 0.0};  // see GaConfig::fault_penalty

    void validate() const;
};

class SimulatedAnnealing {
public:
    SimulatedAnnealing(const ParameterSpace& space, AnnealingConfig config,
                       Direction direction, EvalFn eval, HintSet hints);

    // One annealing run; the curve tracks best-so-far vs distinct evals.
    // `counters`, when non-null, receives the run's evaluation accounting.
    Curve run(std::uint64_t seed, EvalCounters* counters = nullptr) const;
    MultiRunCurve run_many(std::size_t count) const;

private:
    const ParameterSpace& space_;
    AnnealingConfig config_;
    Direction direction_;
    EvalFn eval_;
    HintSet hints_;
};

// Evaluation settings come from EvalPipelineConfig; the greedy walk
// evaluates one candidate at a time.
struct HillClimbConfig : EvalPipelineConfig {
    std::size_t max_distinct_evals = 800;
    // Restart from a random point after this many consecutive non-improving
    // proposals (escapes local optima the greedy walk cannot).
    std::size_t patience = 40;
    double mutation_rate = 0.3;
    std::uint64_t seed = 13;
    Evaluation fault_penalty{false, 0.0};  // see GaConfig::fault_penalty

    void validate() const;
};

class HillClimber {
public:
    HillClimber(const ParameterSpace& space, HillClimbConfig config, Direction direction,
                EvalFn eval, HintSet hints);

    // Same contract as SimulatedAnnealing::run.
    Curve run(std::uint64_t seed, EvalCounters* counters = nullptr) const;
    MultiRunCurve run_many(std::size_t count) const;

private:
    const ParameterSpace& space_;
    HillClimbConfig config_;
    Direction direction_;
    EvalFn eval_;
    HintSet hints_;
};

}  // namespace nautilus
