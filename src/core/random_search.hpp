#pragma once
// Random-sampling baseline.
//
// The paper's footnote 3 contrasts the GA with naive random sampling ("it
// would take on average 11,921 synthesis runs to find a design meeting this
// goal").  RandomSearch draws uniform design points without guidance and
// tracks the same best-so-far-vs-distinct-evaluations curve, so it plugs into
// the same experiment harness.

#include <cstdint>

#include "core/eval_pipeline.hpp"
#include "core/fitness.hpp"
#include "core/parameter.hpp"
#include "core/run_stats.hpp"

namespace nautilus {

// Evaluation settings come from EvalPipelineConfig.
struct RandomSearchConfig : EvalPipelineConfig {
    std::size_t max_distinct_evals = 800;
    std::uint64_t seed = 7;
    Evaluation fault_penalty{false, 0.0};  // see GaConfig::fault_penalty

    void validate() const;  // throws std::invalid_argument on bad settings
};

class RandomSearch {
public:
    RandomSearch(const ParameterSpace& space, RandomSearchConfig config, Direction direction,
                 EvalFn eval);

    // One run: draw uniformly until the distinct-evaluation budget is spent.
    // `counters`, when non-null, receives the run's evaluation accounting.
    Curve run(std::uint64_t seed, EvalCounters* counters = nullptr) const;

    MultiRunCurve run_many(std::size_t count) const;

    // Expected number of uniform draws (with replacement) until hitting a
    // subset of probability `hit_probability`: 1/p.  Used to report the
    // analytic footnote-3 style number.
    static double expected_draws(double hit_probability);

private:
    const ParameterSpace& space_;
    RandomSearchConfig config_;
    Direction direction_;
    EvalFn eval_;
};

}  // namespace nautilus
