#include "breed_reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace nautilus::reference {

std::vector<std::size_t> rank_order(std::span<const double> fitness)
{
    std::vector<std::size_t> order(fitness.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return fitness[a] > fitness[b]; });
    return order;
}

namespace {

constexpr double k_roulette_floor = 0.45;

std::size_t select_rank(std::span<const double> fitness, double pressure, Rng& rng)
{
    const std::size_t n = fitness.size();
    if (n == 1) return 0;
    const std::vector<std::size_t> order = rank_order(fitness);
    std::vector<double> weights(n);
    for (std::size_t r = 0; r < n; ++r) {
        const double frac = static_cast<double>(r) / static_cast<double>(n - 1);
        weights[r] = pressure + ((2.0 - pressure) - pressure) * frac;
    }
    const std::size_t pick = rng.weighted_index(weights);
    return order[pick];
}

std::size_t select_tournament(std::span<const double> fitness, std::size_t k, Rng& rng)
{
    const std::size_t n = fitness.size();
    std::size_t best = rng.index(n);
    for (std::size_t i = 1; i < std::max<std::size_t>(k, 1); ++i) {
        const std::size_t challenger = rng.index(n);
        if (fitness[challenger] > fitness[best]) best = challenger;
    }
    return best;
}

std::size_t select_roulette(std::span<const double> fitness, Rng& rng)
{
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (double f : fitness) {
        if (!std::isfinite(f)) continue;
        lo = std::min(lo, f);
        hi = std::max(hi, f);
    }
    if (!std::isfinite(lo)) return rng.index(fitness.size());
    const double span = hi - lo;
    const double floor_weight = span > 0.0 ? span * k_roulette_floor : 1.0;
    std::vector<double> weights(fitness.size(), 0.0);
    for (std::size_t i = 0; i < fitness.size(); ++i)
        if (std::isfinite(fitness[i])) weights[i] = (fitness[i] - lo) + floor_weight;
    return rng.weighted_index(weights);
}

}  // namespace

std::size_t select_parent(std::span<const double> fitness, const SelectionConfig& config,
                          Rng& rng)
{
    if (fitness.empty()) throw std::invalid_argument("select_parent: empty population");
    if (config.rank_pressure < 1.0 || config.rank_pressure > 2.0)
        throw std::invalid_argument("select_parent: rank_pressure out of [1, 2]");
    switch (config.kind) {
    case SelectionKind::rank: return select_rank(fitness, config.rank_pressure, rng);
    case SelectionKind::tournament:
        return select_tournament(fitness, config.tournament_size, rng);
    case SelectionKind::roulette: return select_roulette(fitness, rng);
    }
    throw std::logic_error("select_parent: unknown selection kind");
}

std::size_t mutate(Genome& genome, const MutationContext& ctx, Rng& rng)
{
    const std::vector<double> probs = gene_mutation_probabilities(ctx);  // validates ctx
    if (!genome.compatible_with(*ctx.space))
        throw std::invalid_argument("mutate: genome incompatible with space");

    std::size_t changed = 0;
    if (ctx.stats != nullptr) ++ctx.stats->genomes;
    for (std::size_t i = 0; i < genome.size(); ++i) {
        if (!rng.bernoulli(probs[i])) continue;
        const ParamDomain& domain = ctx.space->at(i).domain;
        if (domain.cardinality() <= 1) continue;
        const ParamHints& hints = ctx.hints->param(i);
        const std::vector<double> dist =
            value_distribution(domain, hints, ctx.hints->confidence(), genome.gene(i));
        const std::size_t pick = rng.weighted_index(dist);
        genome.set_gene(i, static_cast<std::uint32_t>(pick));
        ++changed;
        if (ctx.stats != nullptr || ctx.origins != nullptr) {
            const bool directed = ctx.hints->confidence() > 0.0 && domain.ordered() &&
                                  (hints.bias || hints.target);
            if (ctx.stats != nullptr) {
                ++ctx.stats->genes_mutated;
                if (!directed) ++ctx.stats->uniform_draws;
                else if (hints.bias) ++ctx.stats->bias_draws;
                else ++ctx.stats->target_draws;
            }
            if (ctx.origins != nullptr)
                ctx.origins[i] = !directed     ? obs::GeneOrigin::uniform
                                 : hints.bias ? obs::GeneOrigin::bias
                                              : obs::GeneOrigin::target;
        }
    }
    return changed;
}

std::pair<Genome, Genome> crossover(const Genome& a, const Genome& b, CrossoverKind kind,
                                    Rng& rng, std::vector<std::uint8_t>* swapped)
{
    if (a.size() != b.size() || a.empty())
        throw std::invalid_argument("crossover: parents must have equal nonzero size");
    const std::size_t n = a.size();
    Genome child_a = a;
    Genome child_b = b;
    if (swapped != nullptr) swapped->assign(n, 0);

    auto swap_range = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const std::uint32_t tmp = child_a.gene(i);
            child_a.set_gene(i, child_b.gene(i));
            child_b.set_gene(i, tmp);
            if (swapped != nullptr) (*swapped)[i] = 1;
        }
    };

    switch (kind) {
    case CrossoverKind::single_point: {
        if (n > 1) swap_range(1 + rng.index(n - 1), n);
        break;
    }
    case CrossoverKind::two_point: {
        if (n > 1) {
            std::size_t p = 1 + rng.index(n - 1);
            std::size_t q = 1 + rng.index(n);
            if (p > q) std::swap(p, q);
            swap_range(p, q);
        }
        break;
    }
    case CrossoverKind::uniform: {
        for (std::size_t i = 0; i < n; ++i)
            if (rng.bernoulli(0.5)) swap_range(i, i + 1);
        break;
    }
    }
    return {std::move(child_a), std::move(child_b)};
}

BreedStats breed_population_scalar(std::vector<Genome>& population,
                                   std::span<const double> fitness,
                                   const BreedConfig& config, const ParameterSpace& space,
                                   const HintSet& hints, double mutation_rate,
                                   std::size_t generation, Rng& rng, bool with_stats,
                                   BirthLog* births)
{
    BreedStats stats;
    std::vector<Genome> next;
    next.reserve(config.population_size);
    if (births != nullptr) births->clear();

    const std::vector<std::size_t> order = rank_order(fitness);
    for (std::size_t e = 0; e < config.elitism; ++e) {
        next.push_back(population[order[e]]);
        if (births != nullptr)
            births->elites.push_back(static_cast<std::uint32_t>(order[e]));
    }

    MutationContext ctx;
    ctx.space = &space;
    ctx.hints = &hints;
    ctx.mutation_rate = mutation_rate;
    ctx.generation = generation;
    if (with_stats) ctx.stats = &stats.mutation;

    std::vector<std::uint8_t> swap_mask;
    while (next.size() < config.population_size) {
        const std::size_t pa = select_parent(fitness, config.selection, rng);
        const std::size_t pb = select_parent(fitness, config.selection, rng);
        Genome child_a = population[pa];
        Genome child_b = population[pb];
        const std::size_t genes = child_a.size();
        bool crossed = false;
        if (rng.bernoulli(config.crossover_rate)) {
            auto [xa, xb] = crossover(child_a, child_b, config.crossover, rng,
                                      births != nullptr ? &swap_mask : nullptr);
            child_a = std::move(xa);
            child_b = std::move(xb);
            ++stats.crossovers;
            crossed = true;
        }
        else if (births != nullptr) {
            swap_mask.assign(genes, 0);
        }
        std::size_t ia = 0;
        const bool keep_b = next.size() + 1 < config.population_size;
        if (births != nullptr) {
            ChildProvenance prov;
            prov.parent_a = static_cast<std::uint32_t>(pa);
            prov.parent_b = static_cast<std::uint32_t>(pb);
            prov.crossed = crossed;
            prov.origins.resize(genes);
            for (std::size_t i = 0; i < genes; ++i)
                prov.origins[i] = swap_mask[i] != 0 ? obs::GeneOrigin::parent_b
                                                    : obs::GeneOrigin::parent_a;
            ia = births->children.size();
            births->children.push_back(prov);
            if (keep_b) {
                std::swap(prov.parent_a, prov.parent_b);
                births->children.push_back(std::move(prov));
            }
        }
        ctx.origins = births != nullptr ? births->children[ia].origins.data() : nullptr;
        mutate(child_a, ctx, rng);
        next.push_back(std::move(child_a));
        if (next.size() < config.population_size) {
            ctx.origins =
                births != nullptr ? births->children[ia + 1].origins.data() : nullptr;
            mutate(child_b, ctx, rng);
            next.push_back(std::move(child_b));
        }
    }
    population = std::move(next);
    return stats;
}

}  // namespace nautilus::reference
