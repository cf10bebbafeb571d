#include "core/nsga2.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/breed.hpp"
#include "core/checkpoint.hpp"
#include "core/eval_pipeline.hpp"

namespace nautilus {

void MultiObjectiveConfig::validate() const
{
    if (population_size < 4)
        throw std::invalid_argument("MultiObjectiveConfig: population_size must be >= 4");
    if (generations == 0)
        throw std::invalid_argument("MultiObjectiveConfig: generations must be >= 1");
    if (mutation_rate < 0.0 || mutation_rate > 1.0)
        throw std::invalid_argument("MultiObjectiveConfig: mutation_rate out of [0, 1]");
    if (crossover_rate < 0.0 || crossover_rate > 1.0)
        throw std::invalid_argument("MultiObjectiveConfig: crossover_rate out of [0, 1]");
    validate_eval("MultiObjectiveConfig");
    validate_checkpoint("MultiObjectiveConfig");
}

PoolRanking::PoolRanking(std::span<const Direction> directions)
{
    for (Direction d : directions) negated_.push_back(d == Direction::maximize);
}

void PoolRanking::clear()
{
    rows_ = 0;
    values_.clear();
}

void PoolRanking::add(std::span<const double> values)
{
    // Unary minus only flips the sign bit, so `a <= b` on folded values is
    // exactly no_worse(a, b, maximize) = `a >= b` on raw ones, for -0.0, the
    // infinities and NaN alike; negating again restores the raw bits.
    for (std::size_t k = 0; k < negated_.size(); ++k)
        values_.push_back(negated_[k] ? -values[k] : values[k]);
    ++rows_;
}

void PoolRanking::non_dominated_sort()
{
    const std::size_t n = rows_;
    const std::size_t m = negated_.size();
    dominated_.resize(n * n);
    dominated_len_.assign(n, 0);
    domination_count_.assign(n, 0);

    // Each unordered pair once.  Row i receives its entries from rows before
    // it (ascending) and then from the pairs (i, j > i) (ascending), so every
    // row lists whom i dominates in ascending index order.
    for (std::size_t i = 0; i < n; ++i) {
        const double* a = &values_[i * m];
        for (std::size_t j = i + 1; j < n; ++j) {
            const double* b = &values_[j * m];
            bool a_no_worse = true;
            bool b_no_worse = true;
            for (std::size_t k = 0; k < m; ++k) {
                a_no_worse &= a[k] <= b[k];
                b_no_worse &= b[k] <= a[k];
            }
            if (a_no_worse && !b_no_worse) {
                dominated_[i * n + dominated_len_[i]++] = j;
                ++domination_count_[j];
            }
            else if (b_no_worse && !a_no_worse) {
                dominated_[j * n + dominated_len_[j]++] = i;
                ++domination_count_[i];
            }
        }
    }

    // Breadth-first peel: front f + 1 is whoever front f releases last.
    members_.clear();
    offsets_.assign(1, 0);
    for (std::size_t i = 0; i < n; ++i)
        if (domination_count_[i] == 0) members_.push_back(i);
    for (std::size_t head = 0; head < members_.size();) {
        const std::size_t end = members_.size();
        offsets_.push_back(end);
        for (std::size_t p = head; p < end; ++p) {
            const std::size_t i = members_[p];
            const std::size_t* row = &dominated_[i * n];
            for (std::size_t q = 0; q < dominated_len_[i]; ++q)
                if (--domination_count_[row[q]] == 0) members_.push_back(row[q]);
        }
        head = end;
    }
}

void PoolRanking::crowding_distance(std::span<const std::size_t> front,
                                    std::span<double> distance)
{
    const std::size_t m = front.size();
    if (m <= 2) {
        std::fill(distance.begin(), distance.end(), std::numeric_limits<double>::infinity());
        return;
    }
    std::fill(distance.begin(), distance.end(), 0.0);

    const std::size_t objectives = negated_.size();
    column_.resize(m);
    order_.resize(m);
    for (std::size_t obj = 0; obj < objectives; ++obj) {
        for (std::size_t k = 0; k < m; ++k) {
            const double v = values_[front[k] * objectives + obj];
            column_[k] = negated_[obj] ? -v : v;
        }
        std::iota(order_.begin(), order_.end(), std::size_t{0});
        std::sort(order_.begin(), order_.end(),
                  [&](std::size_t a, std::size_t b) { return column_[a] < column_[b]; });
        const double lo = column_[order_.front()];
        const double hi = column_[order_.back()];
        distance[order_.front()] = std::numeric_limits<double>::infinity();
        distance[order_.back()] = std::numeric_limits<double>::infinity();
        if (hi <= lo) continue;  // degenerate objective: no spread
        for (std::size_t k = 1; k + 1 < m; ++k) {
            const double gap = column_[order_[k + 1]] - column_[order_[k - 1]];
            distance[order_[k]] += gap / (hi - lo);
        }
    }
}

Nsga2Engine::Nsga2Engine(const ParameterSpace& space, MultiObjectiveConfig config,
                         std::vector<Direction> directions, MultiEvalFn eval,
                         HintSet hints)
    : space_(space),
      config_(config),
      directions_(std::move(directions)),
      eval_(std::move(eval)),
      hints_(std::move(hints))
{
    if (space_.empty()) throw std::invalid_argument("Nsga2Engine: empty parameter space");
    if (directions_.empty())
        throw std::invalid_argument("Nsga2Engine: need at least one objective");
    if (!eval_) throw std::invalid_argument("Nsga2Engine: null evaluation function");
    config_.validate();
    hints_.validate(space_);
}

MultiObjectiveResult Nsga2Engine::run(std::uint64_t seed) const
{
    return run_impl(seed, nullptr);
}

std::uint64_t Nsga2Engine::config_fingerprint(std::uint64_t seed) const
{
    std::uint64_t h = 0x6e736761ull;  // "nsga" tag
    h = hash_combine(h, space_.size());
    for (const Parameter& p : space_) h = hash_combine(h, p.domain.cardinality());
    h = hash_combine(h, config_.population_size);
    h = hash_combine(h, config_.generations);
    h = hash_combine(h, std::bit_cast<std::uint64_t>(config_.mutation_rate));
    h = hash_combine(h, std::bit_cast<std::uint64_t>(config_.crossover_rate));
    h = hash_combine(h, static_cast<std::uint64_t>(config_.crossover));
    h = hash_combine(h, config_.fault.retry.max_attempts);
    h = hash_combine(h, config_.fault.tolerate_failures ? 1 : 0);
    h = hash_combine(h, directions_.size());
    for (Direction d : directions_) h = hash_combine(h, static_cast<std::uint64_t>(d));
    h = hash_combine(h, hints_.fingerprint());
    return hash_combine(h, seed);
}

MultiObjectiveResult Nsga2Engine::resume(const std::string& checkpoint_path) const
{
    const Nsga2Checkpoint cp = load_nsga2_checkpoint(checkpoint_path);
    if (cp.config_hash != config_fingerprint(cp.seed))
        throw std::runtime_error(
            "Nsga2Engine::resume: checkpoint " + checkpoint_path +
            " was written with a different space/config/hints/seed");
    if (cp.objectives != directions_.size())
        throw std::runtime_error("Nsga2Engine::resume: objective count mismatch");
    check_genomes(cp, space_, checkpoint_path);
    return run_impl(cp.seed, &cp);
}

MultiObjectiveResult Nsga2Engine::run_impl(std::uint64_t seed,
                                           const Nsga2Checkpoint* restored) const
{
    Rng rng{seed};

    // The objective arity is checked inside the fault guard, so a malformed
    // result is a failed attempt (retried, then quarantined when tolerated).
    const auto checked_eval = [this](const Genome& g) {
        ObjectiveValues values = eval_(g);
        if (values && values->size() != directions_.size())
            throw std::runtime_error("Nsga2Engine: objective arity mismatch");
        return values;
    };
    EvalPipeline<ObjectiveValues> pipe{checked_eval, config_, ObjectiveValues{},
                                       directions_.size()};
    const obs::Tracer& tracer = config_.obs.tracer;
    obs::Counter* m_generations = nullptr;
    if (obs::MetricsRegistry* reg = config_.obs.registry())
        m_generations = &reg->counter("nsga2.generations");

    struct Member {
        Genome genome;
        std::vector<double> values;  // feasible members only join the pool
    };

    // Archive of every feasible point seen (for the final front).
    std::vector<Member> archive;
    std::vector<Member> population;
    std::size_t start_gen = 0;

    if (restored != nullptr) {
        start_gen = restored->generation;
        rng.restore(restored->rng_state);
        population.reserve(restored->population.size());
        for (std::size_t i = 0; i < restored->population.size(); ++i)
            population.push_back({restored->population[i], restored->population_values[i]});
        archive.reserve(restored->archive.size());
        for (std::size_t i = 0; i < restored->archive.size(); ++i)
            archive.push_back({restored->archive[i], restored->archive_values[i]});
        pipe.restore(*restored);
    }

    const auto run_fields = [&](obs::TraceEvent& ev) {
        ev.add("population", config_.population_size)
            .add("generations", config_.generations)
            .add("objectives", directions_.size())
            .add("confidence", obs::FieldValue{hints_.confidence()});
    };
    const std::optional<std::size_t> resumed_at =
        restored != nullptr ? std::optional{start_gen} : std::nullopt;
    const RunScope scope{"nsga2", config_.obs, pipe, seed, config_.generations,
                         run_fields, resumed_at, &config_};
    obs::ProgressTracker* progress = scope.progress();

    // Lineage recording (DESIGN.md section 11): pure observation, zero RNG
    // draws.  The NSGA-II checkpoint does not persist lineage, so resumed
    // runs root the restored population and archive with op=resume.
    std::optional<obs::LineageRecorder> lineage;
    std::vector<std::uint64_t> pop_ids;      // birth id per population slot
    std::vector<std::uint64_t> archive_ids;  // birth id per archive entry
    std::vector<std::uint64_t> lineage_winners;
    if (tracer.enabled() || config_.obs.lineage_tracker() != nullptr) {
        lineage.emplace(&tracer, config_.obs.lineage_tracker(), "nsga2");
        if (restored != nullptr) {
            pop_ids.reserve(population.size());
            for (std::size_t i = 0; i < population.size(); ++i)
                pop_ids.push_back(
                    lineage->on_root(start_gen, obs::BirthOp::resume, space_.size()));
            archive_ids.reserve(archive.size());
            for (std::size_t i = 0; i < archive.size(); ++i)
                archive_ids.push_back(
                    lineage->on_root(start_gen, obs::BirthOp::resume, space_.size()));
        }
    }

    const auto finish = [&](MultiObjectiveResult result) {
        if (lineage.has_value()) lineage->finish(lineage_winners);
        pipe.counters().copy_to(result);
        result.start_generation = start_gen;
        scope.finish(pipe, [&](obs::TraceEvent& ev) {
            ev.add("front_size", result.front.size())
                .add("halted", obs::FieldValue{result.halted});
        });
        return result;
    };
    std::vector<ObjectiveValues> wave_values;

    // State captured at the top of the generation loop ("about to run
    // generation `gen`"), written atomically.
    const auto write_checkpoint = [&](std::size_t gen) {
        Nsga2Checkpoint cp;
        cp.config_hash = config_fingerprint(seed);
        cp.seed = seed;
        cp.generation = gen;
        cp.objectives = directions_.size();
        cp.rng_state = rng.state();
        for (const Member& m : population) {
            cp.population.push_back(m.genome);
            cp.population_values.push_back(m.values);
        }
        for (const Member& m : archive) {
            cp.archive.push_back(m.genome);
            cp.archive_values.push_back(m.values);
        }
        pipe.snapshot(cp);
        save_checkpoint(config_.checkpoint_path, cp);
        scope.checkpointed(gen, cp.cache.size(), cp.quarantine.size());
    };

    if (restored == nullptr) {
        // Initial population (feasible members only; bounded resampling).
        // Waves are sized by the remaining need so the draw sequence is
        // identical to a serial run while each wave evaluates concurrently.
        std::size_t draws = 0;
        const std::size_t draw_cap = config_.population_size * 50;
        std::vector<Genome> wave;
        while (population.size() < config_.population_size && draws < draw_cap) {
            const std::size_t chunk =
                std::min(config_.population_size - population.size(), draw_cap - draws);
            wave.clear();
            for (std::size_t i = 0; i < chunk; ++i)
                wave.push_back(Genome::random(space_, rng));
            draws += chunk;
            wave_values.assign(chunk, ObjectiveValues{});
            pipe.evaluate(wave, std::span<ObjectiveValues>{wave_values});
            for (std::size_t i = 0; i < chunk; ++i) {
                if (!wave_values[i]) continue;
                population.push_back({wave[i], *wave_values[i]});
                if (lineage.has_value())
                    pop_ids.push_back(
                        lineage->on_root(0, obs::BirthOp::init, space_.size()));
            }
        }
        if (population.size() < 4) return finish({});
        for (const Member& m : population) archive.push_back(m);
        archive_ids = pop_ids;
    }

    // Per-run breeding arena: hoisted per-generation gene mutation
    // probabilities, memoized value distributions and the pair step the GA
    // breeds through too (core/breed.hpp).
    MutationStats mut_stats;
    MutationStats* mut_stats_ptr = tracer.enabled() ? &mut_stats : nullptr;
    BreedContext breed_ctx{space_, hints_, config_.mutation_rate};

    // Per-run ranking scratch, shared by both rankings of every generation.
    PoolRanking ranking{directions_};
    const auto rank_pool = [&](const std::vector<Member>& members) {
        ranking.clear();
        for (const Member& m : members) ranking.add(m.values);
        ranking.non_dominated_sort();
    };
    std::vector<std::size_t> rank;
    std::vector<double> crowd;
    std::vector<double> dist;
    std::vector<std::size_t> order;

    bool halted = false;
    for (std::size_t gen = start_gen; gen < config_.generations; ++gen) {
        if (scope.halts_at(gen, start_gen, write_checkpoint)) {
            halted = true;
            break;
        }
        breed_ctx.begin_generation(gen);

        // Rank the current population.
        rank_pool(population);
        rank.assign(population.size(), 0);
        crowd.assign(population.size(), 0.0);
        for (std::size_t f = 0; f < ranking.front_count(); ++f) {
            const auto front = ranking.front(f);
            dist.resize(front.size());
            ranking.crowding_distance(front, dist);
            for (std::size_t k = 0; k < front.size(); ++k) {
                rank[front[k]] = f;
                crowd[front[k]] = dist[k];
            }
        }

        // Binary tournament on (rank, crowding).  Returns the winner's
        // population index so breeding can record parentage.
        auto select = [&]() -> std::size_t {
            const std::size_t a = rng.index(population.size());
            const std::size_t b = rng.index(population.size());
            if (rank[a] != rank[b]) return rank[a] < rank[b] ? a : b;
            return crowd[a] >= crowd[b] ? a : b;
        };

        // Breed offspring (bounded attempts so sparse spaces terminate).
        // All randomness happens single-threaded while breeding a wave of
        // child pairs; only the evaluations fan out, so the run is
        // deterministic and independent of the worker count.
        std::vector<Member> offspring;
        std::vector<std::uint64_t> offspring_ids;
        offspring.reserve(config_.population_size);
        std::size_t attempts = 0;
        std::size_t born = 0;
        const std::size_t attempt_cap = config_.population_size * 50;
        std::vector<Genome> brood;
        std::vector<std::uint64_t> brood_ids;
        while (offspring.size() < config_.population_size && attempts < attempt_cap) {
            const std::size_t need = config_.population_size - offspring.size();
            const std::size_t pairs = std::min((need + 1) / 2, attempt_cap - attempts);
            attempts += pairs;
            brood.clear();
            brood_ids.clear();
            for (std::size_t p = 0; p < pairs; ++p) {
                const std::size_t pa = select();
                const std::size_t pb = select();
                brood.push_back(population[pa].genome);
                brood.push_back(population[pb].genome);
                std::vector<obs::GeneOrigin> origins_a;
                std::vector<obs::GeneOrigin> origins_b;
                if (lineage.has_value()) {
                    origins_a.resize(space_.size());
                    origins_b.resize(space_.size());
                }
                const bool crossed = breed_ctx.breed_pair(
                    brood[brood.size() - 2].genes_mut(), brood.back().genes_mut(),
                    config_.crossover_rate, config_.crossover, rng, true, mut_stats_ptr,
                    lineage.has_value() ? origins_a.data() : nullptr,
                    lineage.has_value() ? origins_b.data() : nullptr);
                if (lineage.has_value()) {
                    brood_ids.push_back(lineage->on_child(pop_ids[pa], pop_ids[pb], crossed,
                                                          gen, std::move(origins_a)));
                    brood_ids.push_back(lineage->on_child(pop_ids[pb], pop_ids[pa], crossed,
                                                          gen, std::move(origins_b)));
                }
            }
            born += brood.size();
            wave_values.assign(brood.size(), ObjectiveValues{});
            pipe.evaluate(brood, std::span<ObjectiveValues>{wave_values});
            for (std::size_t i = 0; i < brood.size(); ++i) {
                if (offspring.size() >= config_.population_size) break;
                if (wave_values[i]) {
                    offspring.push_back({brood[i], *wave_values[i]});
                    archive.push_back(offspring.back());
                    if (lineage.has_value()) {
                        offspring_ids.push_back(brood_ids[i]);
                        archive_ids.push_back(brood_ids[i]);
                    }
                }
            }
        }

        // Environmental selection over parents + offspring.
        std::vector<Member> pool = std::move(population);
        pool.insert(pool.end(), offspring.begin(), offspring.end());
        std::vector<std::uint64_t> pool_ids = std::move(pop_ids);
        pool_ids.insert(pool_ids.end(), offspring_ids.begin(), offspring_ids.end());
        rank_pool(pool);

        population.clear();
        pop_ids.clear();
        const auto keep = [&](std::size_t idx) {
            population.push_back(pool[idx]);
            if (lineage.has_value()) {
                pop_ids.push_back(pool_ids[idx]);
                lineage->on_survived(pool_ids[idx]);
            }
        };
        for (std::size_t f = 0; f < ranking.front_count(); ++f) {
            const auto front = ranking.front(f);
            if (population.size() + front.size() <= config_.population_size) {
                for (std::size_t idx : front) keep(idx);
            }
            else {
                // Fill the remainder by descending crowding distance.
                dist.resize(front.size());
                ranking.crowding_distance(front, dist);
                order.resize(front.size());
                std::iota(order.begin(), order.end(), std::size_t{0});
                std::sort(order.begin(), order.end(),
                          [&](std::size_t a, std::size_t b) { return dist[a] > dist[b]; });
                for (std::size_t k : order) {
                    if (population.size() >= config_.population_size) break;
                    keep(front[k]);
                }
            }
            if (population.size() >= config_.population_size) break;
        }

        if (m_generations != nullptr) m_generations->add();
        if (progress != nullptr) progress->on_units(gen + 1);
        if (tracer.enabled()) {
            obs::TraceEvent ev{"generation"};
            ev.add("gen", gen)
                .add("engine", "nsga2")
                .add("born", born)
                .add("offspring", offspring.size())
                .add("archive", archive.size())
                .add("fronts", ranking.front_count())
                .add("front0",
                     ranking.front_count() == 0 ? std::size_t{0} : ranking.front(0).size())
                .add("distinct_total", pipe.distinct())
                .add("genes_mutated", std::size_t{mut_stats.genes_mutated})
                .add("bias_draws", std::size_t{mut_stats.bias_draws})
                .add("target_draws", std::size_t{mut_stats.target_draws})
                .add("uniform_draws", std::size_t{mut_stats.uniform_draws})
                .add("importance", obs::FieldValue{hints_.effective_importances(gen)});
            tracer.emit(std::move(ev));
            mut_stats.reset();
        }
    }

    // Final front over the whole archive.
    std::vector<ObjectivePoint> archive_points;
    archive_points.reserve(archive.size());
    for (std::size_t i = 0; i < archive.size(); ++i)
        archive_points.push_back({i, archive[i].values});
    const auto front_idx = pareto_front(archive_points, directions_);

    MultiObjectiveResult result;
    result.halted = halted;
    result.front.reserve(front_idx.size());
    for (std::size_t idx : front_idx)
        result.front.push_back({archive[idx].genome, archive[idx].values});
    if (lineage.has_value())
        for (std::size_t idx : front_idx) lineage_winners.push_back(archive_ids[idx]);
    return finish(std::move(result));
}

}  // namespace nautilus
