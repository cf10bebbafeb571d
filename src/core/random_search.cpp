#include "core/random_search.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "core/eval_pipeline.hpp"
#include "core/genome.hpp"

namespace nautilus {

void RandomSearchConfig::validate() const
{
    if (max_distinct_evals == 0)
        throw std::invalid_argument("RandomSearchConfig: max_distinct_evals must be >= 1");
    validate_eval("RandomSearchConfig");
}

RandomSearch::RandomSearch(const ParameterSpace& space, RandomSearchConfig config,
                           Direction direction, EvalFn eval)
    : space_(space), config_(config), direction_(direction), eval_(std::move(eval))
{
    if (space_.empty()) throw std::invalid_argument("RandomSearch: empty parameter space");
    if (!eval_) throw std::invalid_argument("RandomSearch: null evaluation function");
    config_.validate();
}

Curve RandomSearch::run(std::uint64_t seed, EvalCounters* counters) const
{
    Rng rng{seed};
    EvalPipeline<Evaluation> pipe{eval_, config_, config_.fault_penalty};
    const RunScope scope{"random", config_.obs, pipe, seed, config_.max_distinct_evals,
                         [&](obs::TraceEvent& ev) { ev.add("budget", config_.max_distinct_evals); }};
    obs::ProgressTracker* progress = scope.progress();
    Curve curve{direction_};
    double best = worst_value(direction_);
    bool have_best = false;

    // Draws are issued in waves sized by the remaining distinct budget, so a
    // wave can never overshoot it and the draw sequence matches the serial
    // one exactly (each wave's size depends only on earlier waves' results).
    // Bound total draws so tiny spaces (where every point is soon cached)
    // terminate even if the distinct budget exceeds the space size.
    const std::size_t max_draws = config_.max_distinct_evals * 50;
    std::size_t draws = 0;
    std::size_t distinct = 0;  // tracks evaluator state in draw order
    std::unordered_set<Genome, GenomeHash> seen;
    std::vector<Genome> wave;
    std::vector<Evaluation> evals;
    while (draws < max_draws && distinct < config_.max_distinct_evals) {
        const std::size_t chunk =
            std::min(config_.max_distinct_evals - distinct, max_draws - draws);
        wave.clear();
        for (std::size_t i = 0; i < chunk; ++i) wave.push_back(Genome::random(space_, rng));
        draws += chunk;
        evals.assign(chunk, Evaluation{});
        pipe.evaluate(wave, std::span<Evaluation>{evals});
        for (std::size_t i = 0; i < chunk; ++i) {
            if (!seen.insert(wave[i]).second) continue;  // revisit, free
            ++distinct;
            if (!evals[i].feasible) continue;
            if (!have_best || no_worse(evals[i].value, best, direction_)) {
                best = better_of(evals[i].value, best, direction_);
                have_best = true;
                curve.append(static_cast<double>(distinct), best);
            }
        }
        if (progress != nullptr) {
            progress->on_units(distinct);
            if (have_best) progress->on_best(best);
        }
    }
    scope.finish(pipe, [&](obs::TraceEvent& ev) {
        ev.add("draws", draws)
            .add("feasible", obs::FieldValue{have_best})
            .add("best", obs::FieldValue{have_best ? best : 0.0});
    });
    if (counters != nullptr) *counters = pipe.counters();
    return curve;
}

MultiRunCurve RandomSearch::run_many(std::size_t count) const
{
    return run_many_curves("RandomSearch::run_many", direction_, config_.seed, count,
                           [this](std::uint64_t seed) { return run(seed); });
}

double RandomSearch::expected_draws(double hit_probability)
{
    if (hit_probability <= 0.0 || hit_probability > 1.0)
        throw std::invalid_argument("RandomSearch::expected_draws: probability out of (0, 1]");
    return 1.0 / hit_probability;
}

}  // namespace nautilus
