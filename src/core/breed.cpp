#include "core/breed.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace nautilus {

namespace {

// Domains up to this cardinality get a per-(param, current) distribution
// memo; larger domains fall back to a reusable scratch buffer (the memo
// would cost O(cardinality^2) doubles per parameter).
constexpr std::size_t k_dist_memo_max_cardinality = 256;

}  // namespace

// --- GeneMatrix ------------------------------------------------------------

void GeneMatrix::reset(std::size_t rows, std::size_t genes)
{
    genes_ = genes;
    data_.assign(rows * genes, 0);
}

void GeneMatrix::load(std::span<const Genome> population)
{
    const std::size_t genes = population.empty() ? 0 : population.front().size();
    reset(population.size(), genes);
    for (std::size_t r = 0; r < population.size(); ++r) {
        const std::vector<std::uint32_t>& src = population[r].genes();
        if (src.size() != genes)
            throw std::invalid_argument("GeneMatrix::load: ragged population");
        std::copy(src.begin(), src.end(), row(r).begin());
    }
}

// --- BreedContext ----------------------------------------------------------

BreedContext::BreedContext(const ParameterSpace& space, const HintSet& hints,
                           double mutation_rate)
    : space_(space), hints_(hints), mutation_rate_(mutation_rate)
{
    if (hints_.size() != space_.size())
        throw std::invalid_argument("BreedContext: hints/space size mismatch");
    if (mutation_rate_ < 0.0 || mutation_rate_ > 1.0)
        throw std::invalid_argument("BreedContext: mutation_rate out of [0, 1]");

    const std::size_t n = space_.size();
    card_.resize(n);
    draw_kind_.resize(n);
    memo_.resize(n);
    const double confidence = hints_.confidence();
    for (std::size_t i = 0; i < n; ++i) {
        card_[i] = space_[i].domain.cardinality();
        const ParamHints& h = hints_.param(i);
        // Mirror value_distribution's choice of distribution for the stats
        // classification (generation-independent).
        const bool directed =
            confidence > 0.0 && space_[i].domain.ordered() && (h.bias || h.target);
        draw_kind_[i] = !directed      ? DrawKind::uniform
                        : h.bias       ? DrawKind::bias
                                       : DrawKind::target;
        if (card_[i] >= 2 && card_[i] <= k_dist_memo_max_cardinality)
            memo_[i].resize(card_[i]);
    }
    begin_generation(0);
}

void BreedContext::begin_generation(std::size_t generation)
{
    if (generation_valid_ && generation == generation_) return;
    generation_ = generation;
    generation_valid_ = true;
    MutationContext ctx;
    ctx.space = &space_;
    ctx.hints = &hints_;
    ctx.mutation_rate = mutation_rate_;
    ctx.generation = generation;
    probs_ = gene_mutation_probabilities(ctx);
}

const std::vector<double>& BreedContext::distribution(std::size_t param, std::uint32_t current)
{
    if (param >= card_.size())
        throw std::out_of_range("BreedContext::distribution: parameter out of range");
    if (current >= card_[param])
        throw std::invalid_argument("value_distribution: current index out of range");
    const ParamDomain& domain = space_[param].domain;
    const ParamHints& h = hints_.param(param);
    if (!memo_[param].empty()) {
        std::vector<double>& slot = memo_[param][current];
        if (!slot.empty()) {
            ++memo_hits_;
            return slot;
        }
        ++memo_misses_;
        value_distribution_into(slot, scratch_dir_, scratch_raw_, domain, h,
                                hints_.confidence(), current);
        return slot;
    }
    ++memo_misses_;
    value_distribution_into(scratch_dist_, scratch_dir_, scratch_raw_, domain, h,
                            hints_.confidence(), current);
    return scratch_dist_;
}

std::size_t BreedContext::mutate(std::span<std::uint32_t> genes, Rng& rng,
                                 MutationStats* stats, obs::GeneOrigin* origins)
{
    if (genes.size() != space_.size())
        throw std::invalid_argument("mutate: genome incompatible with space");
    std::size_t changed = 0;
    if (stats != nullptr) ++stats->genomes;
    for (std::size_t i = 0; i < genes.size(); ++i) {
        if (!rng.bernoulli(probs_[i])) continue;
        if (card_[i] <= 1) continue;
        const std::vector<double>& dist = distribution(i, genes[i]);
        const std::size_t pick = rng.weighted_index(dist);
        genes[i] = static_cast<std::uint32_t>(pick);
        ++changed;
        if (stats != nullptr) {
            ++stats->genes_mutated;
            switch (draw_kind_[i]) {
            case DrawKind::uniform: ++stats->uniform_draws; break;
            case DrawKind::bias: ++stats->bias_draws; break;
            case DrawKind::target: ++stats->target_draws; break;
            }
        }
        if (origins != nullptr) {
            switch (draw_kind_[i]) {
            case DrawKind::uniform: origins[i] = obs::GeneOrigin::uniform; break;
            case DrawKind::bias: origins[i] = obs::GeneOrigin::bias; break;
            case DrawKind::target: origins[i] = obs::GeneOrigin::target; break;
            }
        }
    }
    return changed;
}

std::size_t BreedContext::mutate(Genome& genome, Rng& rng, MutationStats* stats,
                                 obs::GeneOrigin* origins)
{
    return mutate(genome.genes_mut(), rng, stats, origins);
}

bool BreedContext::breed_pair(std::span<std::uint32_t> a, std::span<std::uint32_t> b,
                              double crossover_rate, CrossoverKind kind, Rng& rng,
                              bool mutate_b, MutationStats* stats, obs::GeneOrigin* origins_a,
                              obs::GeneOrigin* origins_b)
{
    const bool capture = origins_a != nullptr || origins_b != nullptr;
    const bool crossed = rng.bernoulli(crossover_rate);
    if (crossed) crossover(a, b, kind, rng, capture ? &swap_mask_ : nullptr);
    if (capture) {
        for (std::size_t i = 0; i < a.size(); ++i) {
            const obs::GeneOrigin origin = crossed && swap_mask_[i] != 0
                                               ? obs::GeneOrigin::parent_b
                                               : obs::GeneOrigin::parent_a;
            if (origins_a != nullptr) origins_a[i] = origin;
            if (origins_b != nullptr) origins_b[i] = origin;
        }
    }
    mutate(a, rng, stats, origins_a);
    if (mutate_b) mutate(b, rng, stats, origins_b);
    return crossed;
}

BreedStats BreedContext::breed(std::vector<Genome>& population,
                               std::span<const double> fitness, const BreedConfig& config,
                               Rng& rng, bool with_stats, BirthLog* births)
{
    if (population.size() != config.population_size)
        throw std::invalid_argument("BreedContext::breed: population size mismatch");
    if (config.elitism >= config.population_size)
        throw std::invalid_argument("BreedContext::breed: elitism >= population_size");

    BreedStats stats;
    MutationStats* ms = with_stats ? &stats.mutation : nullptr;
    const std::size_t pop = config.population_size;
    const std::size_t genes = space_.size();
    if (births != nullptr) births->clear();

    table_.rebuild(fitness, config.selection);
    parents_.load(population);
    // One spare row past the population receives the odd-man-out second
    // child when the population fills mid-pair: it takes part in crossover
    // but is never mutated or kept, and gets no birth log entry.
    children_.reset(pop + 1, genes);

    // Elitism: carry the best `elitism` members unchanged.
    rank_order_into(elite_order_, fitness);
    std::size_t filled = 0;
    for (std::size_t e = 0; e < config.elitism; ++e, ++filled) {
        const auto src = parents_.row(elite_order_[e]);
        std::copy(src.begin(), src.end(), children_.row(filled).begin());
        if (births != nullptr)
            births->elites.push_back(static_cast<std::uint32_t>(elite_order_[e]));
    }

    while (filled < pop) {
        const std::size_t pa = table_.select(rng);
        const std::size_t pb = table_.select(rng);
        const bool keep_b = filled + 1 < pop;
        const std::span<std::uint32_t> a = children_.row(filled);
        const std::span<std::uint32_t> b = children_.row(keep_b ? filled + 1 : pop);
        {
            const auto pa_row = parents_.row(pa);
            const auto pb_row = parents_.row(pb);
            std::copy(pa_row.begin(), pa_row.end(), a.begin());
            std::copy(pb_row.begin(), pb_row.end(), b.begin());
        }
        obs::GeneOrigin* origins_a = nullptr;
        obs::GeneOrigin* origins_b = nullptr;
        const std::size_t first_birth = births != nullptr ? births->children.size() : 0;
        if (births != nullptr) {
            // Both entries are pushed before taking the origin pointers so
            // the vector cannot reallocate in between.  Child B starts as a
            // copy of pb; the genes crossover exchanges came from pa.
            const auto ua = static_cast<std::uint32_t>(pa);
            const auto ub = static_cast<std::uint32_t>(pb);
            births->children.push_back({ua, ub, false, std::vector<obs::GeneOrigin>(genes)});
            if (keep_b)
                births->children.push_back(
                    {ub, ua, false, std::vector<obs::GeneOrigin>(genes)});
            origins_a = births->children[first_birth].origins.data();
            if (keep_b) origins_b = births->children.back().origins.data();
        }
        const bool crossed = breed_pair(a, b, config.crossover_rate, config.crossover, rng,
                                        keep_b, ms, origins_a, origins_b);
        if (crossed) ++stats.crossovers;
        if (births != nullptr)
            for (std::size_t k = first_birth; k < births->children.size(); ++k)
                births->children[k].crossed = crossed;
        filled += keep_b ? 2 : 1;
    }

    for (std::size_t i = 0; i < pop; ++i) {
        const auto src = children_.row(i);
        const std::span<std::uint32_t> dst = population[i].genes_mut();
        std::copy(src.begin(), src.end(), dst.begin());
    }
    return stats;
}

// --- DiversityCounter ------------------------------------------------------

void DiversityCounter::reset(std::size_t genes)
{
    genes_ = genes;
    members_ = 0;
    same_pairs_ = 0;
    if (counts_.size() < genes) counts_.resize(genes);
    for (std::size_t g = 0; g < genes; ++g)
        counts_[g].assign(counts_[g].size(), 0);
}

void DiversityCounter::add(std::span<const std::uint32_t> genes)
{
    if (genes.size() != genes_)
        throw std::invalid_argument("DiversityCounter::add: gene count mismatch");
    for (std::size_t g = 0; g < genes_; ++g) {
        const std::uint32_t v = genes[g];
        std::vector<std::uint32_t>& c = counts_[g];
        if (v >= c.size()) c.resize(static_cast<std::size_t>(v) + 1, 0);
        // Every existing member holding value v forms one newly-agreeing pair
        // with this member at gene g.
        same_pairs_ += c[v]++;
    }
    ++members_;
}

double DiversityCounter::value() const
{
    if (members_ < 2 || genes_ == 0) return 0.0;
    const std::uint64_t m = members_;
    const std::uint64_t pairs = m * (m - 1) / 2;
    const std::uint64_t differing = pairs * genes_ - same_pairs_;
    return static_cast<double>(differing) / static_cast<double>(pairs * genes_);
}

double DiversityCounter::measure(std::span<const Genome> population)
{
    if (population.empty() || population.front().empty()) return 0.0;
    reset(population.front().size());
    for (const Genome& g : population) add(g);
    return value();
}

}  // namespace nautilus
