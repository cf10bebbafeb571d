#include "core/local_search.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/breed.hpp"
#include "core/eval_pipeline.hpp"

namespace nautilus {

namespace {

// Shared proposal move: mutate a copy of `current` with the hint-aware
// operator; guarantee at least one gene changes (a no-op proposal wastes a
// step without costing an evaluation, biasing budget accounting).  The
// BreedContext memoizes value distributions across proposals (local search
// never advances the generation, so the hoisted probabilities are static).
// `origins` (optional, one slot per gene) accumulates each changed gene's
// draw class across the bounded retry attempts; untouched genes stay
// parent_a.  Recording never consumes RNG draws (DESIGN.md §11).
Genome propose(const Genome& current, BreedContext& ctx, Rng& rng,
               obs::GeneOrigin* origins = nullptr)
{
    Genome next = current;
    if (origins != nullptr)
        std::fill_n(origins, next.size(), obs::GeneOrigin::parent_a);
    for (int attempt = 0; attempt < 16; ++attempt) {
        if (ctx.mutate(next, rng, nullptr, origins) > 0) return next;
    }
    // Degenerate space (all single-value domains): return unchanged.
    return next;
}

void check_engine_args(const ParameterSpace& space, const EvalFn& eval,
                       const HintSet& hints)
{
    if (space.empty()) throw std::invalid_argument("local search: empty parameter space");
    if (!eval) throw std::invalid_argument("local search: null evaluation function");
    hints.validate(space);
}

// Ends a walk: the best holder wins the lineage, progress reports the final
// units and best, run_end is emitted and `counters` (when set) filled.
void finish_walk(const RunScope& scope, const EvalPipeline<Evaluation>& pipe,
                 std::optional<obs::LineageRecorder>& lineage, bool feasible, double best,
                 std::uint64_t best_id, EvalCounters* counters)
{
    if (lineage.has_value()) {
        std::vector<std::uint64_t> winners;
        if (feasible && best_id != obs::k_no_parent) winners.push_back(best_id);
        lineage->finish(winners);
    }
    if (obs::ProgressTracker* progress = scope.progress()) {
        progress->on_units(pipe.distinct());
        if (feasible) progress->on_best(best);
    }
    scope.finish(pipe, [&](obs::TraceEvent& ev) {
        ev.add("feasible", obs::FieldValue{feasible})
            .add("best", obs::FieldValue{feasible ? best : 0.0});
    });
    if (counters != nullptr) *counters = pipe.counters();
}

}  // namespace

void AnnealingConfig::validate() const
{
    if (max_distinct_evals == 0)
        throw std::invalid_argument("AnnealingConfig: max_distinct_evals must be >= 1");
    if (cooling <= 0.0 || cooling >= 1.0)
        throw std::invalid_argument("AnnealingConfig: cooling out of (0, 1)");
    if (steps_per_temperature == 0)
        throw std::invalid_argument("AnnealingConfig: steps_per_temperature must be >= 1");
    if (mutation_rate <= 0.0 || mutation_rate > 1.0)
        throw std::invalid_argument("AnnealingConfig: mutation_rate out of (0, 1]");
    if (initial_temperature < 0.0)
        throw std::invalid_argument("AnnealingConfig: negative initial temperature");
    validate_eval("AnnealingConfig");
}

SimulatedAnnealing::SimulatedAnnealing(const ParameterSpace& space, AnnealingConfig config,
                                       Direction direction, EvalFn eval, HintSet hints)
    : space_(space),
      config_(config),
      direction_(direction),
      eval_(std::move(eval)),
      hints_(std::move(hints))
{
    config_.validate();
    check_engine_args(space_, eval_, hints_);
}

Curve SimulatedAnnealing::run(std::uint64_t seed, EvalCounters* counters) const
{
    Rng rng{seed};
    EvalPipeline<Evaluation> pipe{eval_, config_, config_.fault_penalty};
    const obs::Tracer& tracer = config_.obs.tracer;
    const RunScope scope{"sa", config_.obs, pipe, seed, config_.max_distinct_evals,
                         [&](obs::TraceEvent& ev) {
                             ev.add("budget", config_.max_distinct_evals)
                                 .add("confidence", obs::FieldValue{hints_.confidence()});
                         }};
    obs::ProgressTracker* progress = scope.progress();

    // Lineage recording (DESIGN.md section 11): every accepted chain step is
    // a survival, the best-so-far holder is the winner.
    std::optional<obs::LineageRecorder> lineage;
    std::uint64_t current_id = obs::k_no_parent;
    std::uint64_t best_id = obs::k_no_parent;
    std::vector<obs::GeneOrigin> prop_origins;
    if (tracer.enabled() || config_.obs.lineage_tracker() != nullptr) {
        lineage.emplace(&tracer, config_.obs.lineage_tracker(), "sa");
        prop_origins.resize(space_.size());
    }

    const FitnessMapper mapper{direction_};
    Curve curve{direction_};

    BreedContext ctx{space_, hints_, config_.mutation_rate};

    // Start from a feasible random point (bounded retries).
    Genome current = Genome::random(space_, rng);
    if (lineage.has_value())
        current_id = lineage->on_root(0, obs::BirthOp::init, space_.size());
    Evaluation current_eval = pipe.evaluate(current);
    for (int tries = 0;
         !current_eval.feasible && tries < 200 &&
         pipe.distinct() < config_.max_distinct_evals;
         ++tries) {
        current = Genome::random(space_, rng);
        if (lineage.has_value())
            current_id = lineage->on_root(0, obs::BirthOp::init, space_.size());
        current_eval = pipe.evaluate(current);
    }
    if (!current_eval.feasible) {
        finish_walk(scope, pipe, lineage, false, 0.0, best_id, counters);
        return curve;
    }
    if (lineage.has_value()) {
        lineage->on_improved(current_id);
        best_id = current_id;
    }

    double best = current_eval.value;
    curve.append(static_cast<double>(pipe.distinct()), best);

    // Auto temperature: a few probe moves estimate the cost scale.  The
    // probe chain is built single-threaded (mutation only consumes rng),
    // then evaluated as one concurrent batch; each probe adds at most one
    // distinct evaluation so the wave never overshoots the budget.
    double temperature = config_.initial_temperature;
    if (temperature == 0.0) {
        double spread = 0.0;
        const std::size_t remaining =
            config_.max_distinct_evals - pipe.distinct();
        std::vector<Genome> probes;
        Genome probe = current;
        std::uint64_t probe_id = current_id;
        for (std::size_t i = 0; i < std::min<std::size_t>(8, remaining); ++i) {
            probe = propose(probe, ctx, rng,
                            lineage.has_value() ? prop_origins.data() : nullptr);
            if (lineage.has_value())
                probe_id = lineage->on_child(probe_id, obs::k_no_parent, false, 0,
                                             prop_origins);
            probes.push_back(probe);
        }
        std::vector<Evaluation> probe_evals(probes.size());
        pipe.evaluate(probes, std::span<Evaluation>{probe_evals});
        for (const Evaluation& e : probe_evals)
            if (e.feasible)
                spread = std::max(spread, std::abs(e.value - current_eval.value));
        temperature = spread > 0.0 ? spread : std::abs(best) * 0.1 + 1.0;
    }

    std::size_t step = 0;
    while (pipe.distinct() < config_.max_distinct_evals) {
        const Genome candidate = propose(
            current, ctx, rng, lineage.has_value() ? prop_origins.data() : nullptr);
        std::uint64_t cand_id = obs::k_no_parent;
        if (lineage.has_value())
            cand_id = lineage->on_child(current_id, obs::k_no_parent, false, step,
                                        prop_origins);
        const Evaluation cand_eval = pipe.evaluate(candidate);
        const double delta = mapper.fitness(cand_eval) - mapper.fitness(current_eval);
        const bool accept =
            delta >= 0.0 ||
            (std::isfinite(delta) && rng.bernoulli(std::exp(delta / temperature)));
        if (accept && cand_eval.feasible) {
            current = candidate;
            current_eval = cand_eval;
            if (lineage.has_value()) {
                lineage->on_survived(cand_id);
                current_id = cand_id;
            }
            if (no_worse(cand_eval.value, best, direction_)) {
                best = better_of(cand_eval.value, best, direction_);
                if (lineage.has_value()) {
                    lineage->on_improved(cand_id);
                    best_id = cand_id;
                }
                curve.append(static_cast<double>(pipe.distinct()), best);
            }
        }
        if (++step % config_.steps_per_temperature == 0)
            temperature = std::max(temperature * config_.cooling, 1e-12);
        if (progress != nullptr) {
            progress->on_units(pipe.distinct());
            progress->on_best(best);
        }
    }
    finish_walk(scope, pipe, lineage, true, best, best_id, counters);
    return curve;
}

MultiRunCurve SimulatedAnnealing::run_many(std::size_t count) const
{
    return run_many_curves("SimulatedAnnealing::run_many", direction_, config_.seed, count,
                           [this](std::uint64_t seed) { return run(seed); });
}

void HillClimbConfig::validate() const
{
    if (max_distinct_evals == 0)
        throw std::invalid_argument("HillClimbConfig: max_distinct_evals must be >= 1");
    if (patience == 0) throw std::invalid_argument("HillClimbConfig: patience must be >= 1");
    if (mutation_rate <= 0.0 || mutation_rate > 1.0)
        throw std::invalid_argument("HillClimbConfig: mutation_rate out of (0, 1]");
    validate_eval("HillClimbConfig");
}

HillClimber::HillClimber(const ParameterSpace& space, HillClimbConfig config,
                         Direction direction, EvalFn eval, HintSet hints)
    : space_(space),
      config_(config),
      direction_(direction),
      eval_(std::move(eval)),
      hints_(std::move(hints))
{
    config_.validate();
    check_engine_args(space_, eval_, hints_);
}

Curve HillClimber::run(std::uint64_t seed, EvalCounters* counters) const
{
    Rng rng{seed};
    EvalPipeline<Evaluation> pipe{eval_, config_, config_.fault_penalty};
    const obs::Tracer& tracer = config_.obs.tracer;
    const RunScope scope{"hc", config_.obs, pipe, seed, config_.max_distinct_evals,
                         [&](obs::TraceEvent& ev) {
                             ev.add("budget", config_.max_distinct_evals)
                                 .add("confidence", obs::FieldValue{hints_.confidence()});
                         }};
    obs::ProgressTracker* progress = scope.progress();

    // Lineage recording (DESIGN.md section 11): restarts mint new roots,
    // accepted candidates survive, the best-so-far holder is the winner.
    std::optional<obs::LineageRecorder> lineage;
    std::uint64_t current_id = obs::k_no_parent;
    std::uint64_t best_id = obs::k_no_parent;
    std::vector<obs::GeneOrigin> prop_origins;
    if (tracer.enabled() || config_.obs.lineage_tracker() != nullptr) {
        lineage.emplace(&tracer, config_.obs.lineage_tracker(), "hc");
        prop_origins.resize(space_.size());
    }

    Curve curve{direction_};

    BreedContext ctx{space_, hints_, config_.mutation_rate};

    double best = worst_value(direction_);
    bool have_best = false;

    Genome current = Genome::random(space_, rng);
    if (lineage.has_value())
        current_id = lineage->on_root(0, obs::BirthOp::init, space_.size());
    Evaluation current_eval = pipe.evaluate(current);
    std::size_t stale = 0;
    std::size_t step = 0;

    auto note = [&](const Evaluation& e, std::uint64_t id) {
        if (!e.feasible) return;
        if (!have_best || no_worse(e.value, best, direction_)) {
            best = better_of(e.value, best, direction_);
            have_best = true;
            if (lineage.has_value()) {
                lineage->on_improved(id);
                best_id = id;
            }
            curve.append(static_cast<double>(pipe.distinct()), best);
        }
    };
    note(current_eval, current_id);

    while (pipe.distinct() < config_.max_distinct_evals) {
        ++step;
        if (stale >= config_.patience || !current_eval.feasible) {
            current = Genome::random(space_, rng);
            if (lineage.has_value())
                current_id = lineage->on_root(step, obs::BirthOp::init, space_.size());
            current_eval = pipe.evaluate(current);
            note(current_eval, current_id);
            stale = 0;
            continue;
        }
        const Genome candidate = propose(
            current, ctx, rng, lineage.has_value() ? prop_origins.data() : nullptr);
        std::uint64_t cand_id = obs::k_no_parent;
        if (lineage.has_value())
            cand_id = lineage->on_child(current_id, obs::k_no_parent, false, step,
                                        prop_origins);
        const Evaluation cand_eval = pipe.evaluate(candidate);
        if (cand_eval.feasible &&
            no_worse(cand_eval.value, current_eval.value, direction_)) {
            const bool strictly =
                !no_worse(current_eval.value, cand_eval.value, direction_);
            current = candidate;
            current_eval = cand_eval;
            if (lineage.has_value()) {
                lineage->on_survived(cand_id);
                current_id = cand_id;
            }
            note(cand_eval, cand_id);
            stale = strictly ? 0 : stale + 1;
        }
        else {
            ++stale;
        }
        if (progress != nullptr) {
            progress->on_units(pipe.distinct());
            if (have_best) progress->on_best(best);
        }
    }
    finish_walk(scope, pipe, lineage, have_best, best, best_id, counters);
    return curve;
}

MultiRunCurve HillClimber::run_many(std::size_t count) const
{
    return run_many_curves("HillClimber::run_many", direction_, config_.seed, count,
                           [this](std::uint64_t seed) { return run(seed); });
}

}  // namespace nautilus
