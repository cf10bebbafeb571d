#include "core/ga.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "core/breed.hpp"
#include "core/checkpoint.hpp"
#include "core/eval_pipeline.hpp"

namespace nautilus {

void GaConfig::validate() const
{
    if (population_size < 2)
        throw std::invalid_argument("GaConfig: population_size must be >= 2");
    if (generations == 0) throw std::invalid_argument("GaConfig: generations must be >= 1");
    if (mutation_rate < 0.0 || mutation_rate > 1.0)
        throw std::invalid_argument("GaConfig: mutation_rate out of [0, 1]");
    if (crossover_rate < 0.0 || crossover_rate > 1.0)
        throw std::invalid_argument("GaConfig: crossover_rate out of [0, 1]");
    if (elitism >= population_size)
        throw std::invalid_argument("GaConfig: elitism must be < population_size");
    if (selection.rank_pressure < 1.0 || selection.rank_pressure > 2.0)
        throw std::invalid_argument("GaConfig: rank_pressure out of [1, 2]");
    if (selection.tournament_size == 0)
        throw std::invalid_argument("GaConfig: tournament_size must be >= 1");
    validate_eval("GaConfig");
    validate_checkpoint("GaConfig");
}

void GaEngine::seed_population(std::vector<Genome> seeds)
{
    for (const Genome& g : seeds)
        if (!g.compatible_with(space_))
            throw std::invalid_argument(
                "GaEngine::seed_population: genome incompatible with space");
    if (seeds.size() > config_.population_size) seeds.resize(config_.population_size);
    seeds_ = std::move(seeds);
}

GaEngine::GaEngine(const ParameterSpace& space, GaConfig config, Direction direction,
                   EvalFn eval, HintSet hints)
    : space_(space),
      config_(config),
      direction_(direction),
      eval_(std::move(eval)),
      hints_(std::move(hints))
{
    if (space_.empty()) throw std::invalid_argument("GaEngine: empty parameter space");
    if (!eval_) throw std::invalid_argument("GaEngine: null evaluation function");
    config_.validate();
    hints_.validate(space_);
}

RunResult GaEngine::run() const
{
    return run(config_.seed);
}

RunResult GaEngine::run(std::uint64_t seed) const
{
    return run_impl(seed, nullptr);
}

std::uint64_t GaEngine::config_fingerprint(std::uint64_t seed) const
{
    std::uint64_t h = 0x6e6175746975ull;  // "nautiu" tag
    h = hash_combine(h, space_.size());
    for (const Parameter& p : space_) h = hash_combine(h, p.domain.cardinality());
    h = hash_combine(h, config_.population_size);
    h = hash_combine(h, config_.generations);
    h = hash_combine(h, std::bit_cast<std::uint64_t>(config_.mutation_rate));
    h = hash_combine(h, std::bit_cast<std::uint64_t>(config_.crossover_rate));
    h = hash_combine(h, static_cast<std::uint64_t>(config_.crossover));
    h = hash_combine(h, static_cast<std::uint64_t>(config_.selection.kind));
    h = hash_combine(h, std::bit_cast<std::uint64_t>(config_.selection.rank_pressure));
    h = hash_combine(h, config_.selection.tournament_size);
    h = hash_combine(h, config_.elitism);
    h = hash_combine(h, config_.target_value
                            ? std::bit_cast<std::uint64_t>(*config_.target_value)
                            : 0x7a11);
    h = hash_combine(h, config_.stall_generations);
    h = hash_combine(h, config_.fault.retry.max_attempts);
    h = hash_combine(h, config_.fault.tolerate_failures ? 1 : 0);
    h = hash_combine(h, config_.fault_penalty.feasible ? 1 : 0);
    h = hash_combine(h, std::bit_cast<std::uint64_t>(config_.fault_penalty.value));
    h = hash_combine(h, static_cast<std::uint64_t>(direction_));
    h = hash_combine(h, hints_.fingerprint());
    for (const Genome& g : seeds_) h = hash_combine(h, g.key());
    return hash_combine(h, seed);
}

RunResult GaEngine::resume(const std::string& checkpoint_path) const
{
    const GaCheckpoint cp = load_ga_checkpoint(checkpoint_path);
    if (cp.config_hash != config_fingerprint(cp.seed))
        throw std::runtime_error(
            "GaEngine::resume: checkpoint " + checkpoint_path +
            " was written with a different space/config/hints/seed");
    check_genomes(cp, space_, checkpoint_path);
    return run_impl(cp.seed, &cp);
}

RunResult GaEngine::run_impl(std::uint64_t seed, const GaCheckpoint* restored) const
{
    Rng rng{seed};
    EvalPipeline<Evaluation> pipe{eval_, config_, config_.fault_penalty};
    const obs::Tracer& tracer = config_.obs.tracer;
    obs::Counter* m_generations = nullptr;
    if (obs::MetricsRegistry* reg = config_.obs.registry())
        m_generations = &reg->counter("ga.generations");

    const FitnessMapper mapper{direction_};
    RunResult result{direction_};
    result.history.reserve(config_.generations);
    double best_so_far = worst_value(direction_);
    bool have_best = false;
    std::size_t stall = 0;
    std::size_t start_gen = 0;
    std::vector<Genome> population;
    population.reserve(config_.population_size);

    if (restored != nullptr) {
        start_gen = restored->generation;
        rng.restore(restored->rng_state);
        population = restored->population;
        result.history = restored->history;
        for (const CurvePoint& p : restored->curve) result.curve.append(p.evals, p.best);
        have_best = restored->have_best;
        result.best_genome = restored->best_genome;
        result.best_eval = restored->best_eval;
        best_so_far = restored->best_so_far;
        stall = restored->stall;
        pipe.restore(*restored);
    }
    else {
        for (const Genome& g : seeds_) population.push_back(g);
        while (population.size() < config_.population_size)
            population.push_back(Genome::random(space_, rng));
    }
    result.start_generation = start_gen;

    const auto run_fields = [&](obs::TraceEvent& ev) {
        ev.add("population", config_.population_size)
            .add("generations", config_.generations)
            .add("mutation_rate", obs::FieldValue{config_.mutation_rate})
            .add("crossover_rate", obs::FieldValue{config_.crossover_rate})
            .add("confidence", obs::FieldValue{hints_.confidence()});
    };
    const std::optional<std::size_t> resumed_at =
        restored != nullptr ? std::optional{start_gen} : std::nullopt;
    const RunScope scope{"ga", config_.obs, pipe, seed, config_.generations,
                         run_fields, resumed_at, &config_};
    obs::ProgressTracker* progress = scope.progress();

    // Lineage recording (DESIGN.md section 11): active whenever tracing is on
    // or a live tracker is attached.  Recording is pure observation -- it
    // consumes zero RNG draws, so the determinism contract is unchanged.
    std::optional<obs::LineageRecorder> lineage;
    std::vector<std::uint64_t> ids;      // birth id of each population slot
    std::vector<std::uint64_t> next_ids;
    if (tracer.enabled() || config_.obs.lineage_tracker() != nullptr) {
        lineage.emplace(&tracer, config_.obs.lineage_tracker(), "ga");
        if (restored != nullptr && restored->have_lineage &&
            restored->lineage.slot_ids.size() == population.size()) {
            lineage->restore(restored->lineage);
            ids = restored->lineage.slot_ids;
        }
        else {
            const obs::BirthOp root_op =
                restored != nullptr ? obs::BirthOp::resume : obs::BirthOp::init;
            ids.reserve(population.size());
            for (std::size_t i = 0; i < population.size(); ++i)
                ids.push_back(lineage->on_root(start_gen, root_op, space_.size()));
        }
    }

    // Capture the loop state as "about to evaluate generation `gen`" and
    // write it out atomically.
    const auto write_checkpoint = [&](std::size_t gen) {
        GaCheckpoint cp;
        cp.config_hash = config_fingerprint(seed);
        cp.seed = seed;
        cp.generation = gen;
        cp.rng_state = rng.state();
        cp.population = population;
        cp.history = result.history;
        cp.curve = result.curve.points();
        cp.have_best = have_best;
        cp.best_genome = result.best_genome;
        cp.best_eval = result.best_eval;
        cp.best_so_far = best_so_far;
        cp.stall = stall;
        pipe.snapshot(cp);
        if (lineage.has_value()) {
            cp.have_lineage = true;
            cp.lineage = lineage->snapshot(ids);
        }
        save_checkpoint(config_.checkpoint_path, cp);
        scope.checkpointed(gen, cp.cache.size(), cp.quarantine.size());
    };

    std::vector<Evaluation> evals(config_.population_size);
    std::vector<double> fitness(config_.population_size);

    // Per-run breeding arena (DESIGN.md section 10): hoisted selection
    // tables, per-generation gene mutation probabilities and memoized value
    // distributions.
    BreedConfig breed_cfg;
    breed_cfg.selection = config_.selection;
    breed_cfg.crossover = config_.crossover;
    breed_cfg.crossover_rate = config_.crossover_rate;
    breed_cfg.elitism = config_.elitism;
    breed_cfg.population_size = config_.population_size;
    BreedContext breed_ctx{space_, hints_, config_.mutation_rate};
    DiversityCounter diversity;
    BirthLog birth_log;

    for (std::size_t gen = start_gen; gen < config_.generations; ++gen) {
        if (scope.halts_at(gen, start_gen, write_checkpoint)) {
            result.halted = true;
            break;
        }
        // --- Evaluate (fans out across the worker pool) -------------------
        pipe.evaluate(population, std::span<Evaluation>{evals});
        for (std::size_t i = 0; i < population.size(); ++i)
            fitness[i] = mapper.fitness(evals[i]);

        // --- Record statistics ------------------------------------------
        GenerationStats stats;
        stats.generation = gen;
        stats.distinct_evals = pipe.distinct();
        double gen_best = worst_value(direction_);
        double gen_worst = direction_ == Direction::maximize
                               ? std::numeric_limits<double>::infinity()
                               : -std::numeric_limits<double>::infinity();
        double sum = 0.0;
        std::size_t best_index = 0;
        for (std::size_t i = 0; i < population.size(); ++i) {
            if (!evals[i].feasible) continue;
            ++stats.feasible;
            sum += evals[i].value;
            if (no_worse(evals[i].value, gen_best, direction_)) {
                gen_best = evals[i].value;
                best_index = i;
            }
            if (!no_worse(evals[i].value, gen_worst, direction_)) gen_worst = evals[i].value;
        }
        bool improved = false;
        if (stats.feasible > 0) {
            stats.best = gen_best;
            stats.worst = gen_worst;
            stats.mean = sum / static_cast<double>(stats.feasible);
            if (!have_best || no_worse(gen_best, best_so_far, direction_)) {
                if (!have_best || !no_worse(best_so_far, gen_best, direction_)) {
                    result.best_genome = population[best_index];
                    result.best_eval = evals[best_index];
                    improved = true;
                }
                best_so_far = better_of(gen_best, best_so_far, direction_);
                have_best = true;
            }
        }
        if (improved && lineage.has_value()) lineage->on_improved(ids[best_index]);
        stats.best_so_far = best_so_far;
        result.history.push_back(stats);
        if (have_best)
            result.curve.append(static_cast<double>(stats.distinct_evals), best_so_far);
        if (m_generations != nullptr) m_generations->add();
        if (progress != nullptr) {
            progress->on_units(gen + 1);
            if (have_best) progress->on_best(best_so_far);
        }
        if (tracer.enabled()) {
            obs::TraceEvent ev{"generation"};
            ev.add("gen", gen)
                .add("best", obs::FieldValue{stats.best})
                .add("mean", obs::FieldValue{stats.mean})
                .add("worst", obs::FieldValue{stats.worst})
                .add("feasible", stats.feasible)
                .add("best_so_far", obs::FieldValue{stats.best_so_far})
                .add("distinct_total", stats.distinct_evals)
                .add("diversity", obs::FieldValue{diversity.measure(population)});
            tracer.emit(std::move(ev));
        }

        // --- Early termination ---------------------------------------------
        if (config_.target_value && have_best &&
            no_worse(best_so_far, *config_.target_value, direction_)) {
            result.hit_target = true;
            break;
        }
        stall = improved ? 0 : stall + 1;
        if (config_.stall_generations > 0 && stall >= config_.stall_generations) {
            result.stalled = true;
            break;
        }

        if (gen + 1 == config_.generations) break;

        // --- Breed the next generation -----------------------------------
        BreedStats breed_stats;
        BirthLog* births = lineage.has_value() ? &birth_log : nullptr;
        {
            obs::ScopedTimer breed_span{tracer, "ga.breed"};
            breed_ctx.begin_generation(gen);
            breed_stats = breed_ctx.breed(population, fitness, breed_cfg, rng,
                                          tracer.enabled(), births);
        }
        if (births != nullptr) {
            // Remap population slots to the newborn generation's birth ids.
            next_ids.clear();
            for (const std::uint32_t e : births->elites)
                next_ids.push_back(lineage->on_elite(ids[e], gen));
            for (ChildProvenance& c : births->children)
                next_ids.push_back(lineage->on_child(ids[c.parent_a], ids[c.parent_b],
                                                     c.crossed, gen,
                                                     std::move(c.origins)));
            ids.swap(next_ids);
        }
        if (tracer.enabled()) {
            const MutationStats& mut_stats = breed_stats.mutation;
            obs::TraceEvent ev{"breed"};
            ev.add("gen", gen)
                .add("children", config_.population_size - config_.elitism)
                .add("elites", config_.elitism)
                .add("crossovers", breed_stats.crossovers)
                .add("genomes_mutated", std::size_t{mut_stats.genomes})
                .add("genes_mutated", std::size_t{mut_stats.genes_mutated})
                .add("bias_draws", std::size_t{mut_stats.bias_draws})
                .add("target_draws", std::size_t{mut_stats.target_draws})
                .add("uniform_draws", std::size_t{mut_stats.uniform_draws})
                .add("importance", obs::FieldValue{hints_.effective_importances(gen)});
            tracer.emit(std::move(ev));
        }
    }

    pipe.counters().copy_to(result);
    result.final_population = std::move(population);
    result.final_rng_state = rng.state();
    if (lineage.has_value()) {
        std::vector<std::uint64_t> winners;
        if (lineage->last_improved() != obs::k_no_parent)
            winners.push_back(lineage->last_improved());
        lineage->finish(winners);
    }
    scope.finish(pipe, [&](obs::TraceEvent& ev) {
        ev.add("generations", result.history.size())
            .add("feasible", obs::FieldValue{have_best})
            .add("best", obs::FieldValue{have_best ? best_so_far : 0.0})
            .add("hit_target", obs::FieldValue{result.hit_target})
            .add("stalled", obs::FieldValue{result.stalled})
            .add("halted", obs::FieldValue{result.halted});
    });
    return result;
}

MultiRunCurve GaEngine::run_many(std::size_t count, EvalSummary* summary) const
{
    return run_many_curves("GaEngine::run_many", direction_, config_.seed, count,
                           [&](std::uint64_t seed) {
                               RunResult r = run(seed);
                               if (summary != nullptr) summary->absorb(r);
                               return std::move(r.curve);
                           });
}

}  // namespace nautilus
