#include "core/operators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace nautilus {

namespace {

constexpr double k_max_gene_rate = 0.95;
constexpr double k_min_rate_factor = 0.12;  // floor on hint-suppressed gene rates

void check_context(const MutationContext& ctx)
{
    if (ctx.space == nullptr || ctx.hints == nullptr)
        throw std::invalid_argument("MutationContext: null space or hints");
    if (ctx.hints->size() != ctx.space->size())
        throw std::invalid_argument("MutationContext: hints/space size mismatch");
    if (ctx.mutation_rate < 0.0 || ctx.mutation_rate > 1.0)
        throw std::invalid_argument("MutationContext: mutation_rate out of [0, 1]");
}

// Geometric step-length weights away from `current`, with the mass of each
// side set by the bias.  `reach` controls the decay of long steps.
void add_bias_weights(std::vector<double>& w, std::vector<double>& raw, std::size_t n,
                      std::uint32_t current, double bias, double reach)
{
    const double p_up = (1.0 + bias) / 2.0;
    const double p_down = 1.0 - p_up;
    const double decay = std::clamp(1.0 - 1.0 / std::max(reach, 1.0), 0.05, 0.95);

    double up_total = 0.0;
    double down_total = 0.0;
    raw.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        if (i == current) continue;
        const double dist = std::abs(static_cast<double>(i) - static_cast<double>(current));
        const double g = std::pow(decay, dist - 1.0);
        raw[i] = g;
        if (i > current)
            up_total += g;
        else
            down_total += g;
    }
    // Normalize each side to its target mass.  If a side is empty (current at
    // a domain edge) its mass flows to the other side so the distribution
    // still sums to 1.
    double up_mass = p_up;
    double down_mass = p_down;
    if (up_total == 0.0) {
        down_mass += up_mass;
        up_mass = 0.0;
    }
    if (down_total == 0.0) {
        up_mass += down_mass;
        down_mass = 0.0;
        if (up_total == 0.0) return;  // single-value domain
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (i == current || raw[i] == 0.0) continue;
        if (i > current)
            w[i] += up_mass * raw[i] / up_total;
        else
            w[i] += down_mass * raw[i] / down_total;
    }
}

// Laplace-kernel weights centered on the target index.
void add_target_weights(std::vector<double>& w, std::vector<double>& raw, std::size_t n,
                        std::uint32_t current, std::size_t target_index, double spread)
{
    double total = 0.0;
    raw.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        if (i == current) continue;
        const double dist =
            std::abs(static_cast<double>(i) - static_cast<double>(target_index));
        raw[i] = std::exp(-dist / spread);
        total += raw[i];
    }
    if (total == 0.0) return;
    for (std::size_t i = 0; i < n; ++i) w[i] += raw[i] / total;
}

}  // namespace

std::vector<double> gene_mutation_probabilities(const MutationContext& ctx)
{
    check_context(ctx);
    const std::size_t n = ctx.space->size();
    std::vector<double> probs(n, ctx.mutation_rate);
    if (n == 0) return probs;

    const double c = ctx.hints->confidence();
    if (c == 0.0) return probs;

    double total_importance = 0.0;
    std::vector<double> imp(n);
    for (std::size_t i = 0; i < n; ++i) {
        imp[i] = ctx.hints->effective_importance(i, ctx.generation);
        total_importance += imp[i];
    }
    if (total_importance <= 0.0) return probs;

    for (std::size_t i = 0; i < n; ++i) {
        // Normalized importance with mean 1 preserves the expected number of
        // mutations per genome; confidence blends toward it.  A floor keeps
        // "unimportant" genes mutating occasionally so hint errors cannot
        // freeze part of the space (paper footnote 1).
        const double skew = imp[i] * static_cast<double>(n) / total_importance;
        const double blended = std::max((1.0 - c) + c * skew, k_min_rate_factor);
        probs[i] = std::clamp(ctx.mutation_rate * blended, 0.0, k_max_gene_rate);
    }
    return probs;
}

void value_distribution_into(std::vector<double>& w, std::vector<double>& dir,
                             std::vector<double>& raw, const ParamDomain& domain,
                             const ParamHints& hints, double confidence,
                             std::uint32_t current)
{
    const std::size_t n = domain.cardinality();
    if (current >= n)
        throw std::invalid_argument("value_distribution: current index out of range");
    w.assign(n, 0.0);
    if (n <= 1) return;  // nothing to mutate to

    // Baseline: uniform over all values except the current one.
    const double uniform_mass = 1.0 / static_cast<double>(n - 1);

    const bool directed =
        confidence > 0.0 && domain.ordered() && (hints.bias || hints.target);
    if (!directed) {
        for (std::size_t i = 0; i < n; ++i)
            if (i != current) w[i] = uniform_mass;
        return;
    }

    // Directed component.
    dir.assign(n, 0.0);
    const double span = static_cast<double>(n);
    const double step_scale = hints.step_scale.value_or(0.5);
    if (hints.target) {
        const std::size_t target_index = domain.nearest_index(*hints.target);
        const double spread = std::max(1.0, span * step_scale / 3.0);
        add_target_weights(dir, raw, n, current, target_index, spread);
    }
    else {
        const double reach = std::max(1.0, span * step_scale);
        add_bias_weights(dir, raw, n, current, *hints.bias, reach);
    }

    double dir_total = 0.0;
    for (double v : dir) dir_total += v;
    if (dir_total <= 0.0) {
        for (std::size_t i = 0; i < n; ++i)
            if (i != current) w[i] = uniform_mass;
        return;
    }

    for (std::size_t i = 0; i < n; ++i) {
        if (i == current) continue;
        w[i] = (1.0 - confidence) * uniform_mass + confidence * dir[i] / dir_total;
    }
}

std::vector<double> value_distribution(const ParamDomain& domain, const ParamHints& hints,
                                       double confidence, std::uint32_t current)
{
    std::vector<double> w;
    std::vector<double> dir;
    std::vector<double> raw;
    value_distribution_into(w, dir, raw, domain, hints, confidence, current);
    return w;
}

const char* crossover_name(CrossoverKind kind)
{
    switch (kind) {
    case CrossoverKind::single_point: return "single_point";
    case CrossoverKind::two_point: return "two_point";
    case CrossoverKind::uniform: return "uniform";
    }
    return "?";
}

void crossover(std::span<std::uint32_t> a, std::span<std::uint32_t> b, CrossoverKind kind,
               Rng& rng, std::vector<std::uint8_t>* swapped)
{
    if (a.size() != b.size() || a.empty())
        throw std::invalid_argument("crossover: parents must have equal nonzero size");
    const std::size_t n = a.size();
    if (swapped != nullptr) swapped->assign(n, 0);

    auto swap_range = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            std::swap(a[i], b[i]);
            if (swapped != nullptr) (*swapped)[i] = 1;
        }
    };

    switch (kind) {
    case CrossoverKind::single_point: {
        // Cut in [1, n-1] so both children mix genes (no-op for n == 1).
        if (n > 1) swap_range(1 + rng.index(n - 1), n);
        break;
    }
    case CrossoverKind::two_point: {
        // First cut in [1, n-1], second in [1, n]: swap_range is half-open,
        // so the second cut must reach n for the last gene to be
        // exchangeable (q = n swaps the tail [p, n) including gene n-1).
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
}

std::size_t repair(Genome& genome, const ParameterSpace& space,
                   std::vector<obs::GeneOrigin>* origins)
{
    std::size_t changed = 0;
    std::vector<std::uint32_t> genes = genome.genes();
    if (origins != nullptr && origins->size() != space.size())
        origins->resize(space.size(), obs::GeneOrigin::fresh);
    if (genes.size() != space.size()) {
        changed += genes.size() > space.size() ? genes.size() - space.size()
                                               : space.size() - genes.size();
        if (origins != nullptr)
            for (std::size_t i = genes.size(); i < space.size(); ++i)
                (*origins)[i] = obs::GeneOrigin::repair;
        genes.resize(space.size(), 0);
    }
    for (std::size_t i = 0; i < genes.size(); ++i) {
        // Compare in std::size_t: a cardinality above 2^32 must not be
        // truncated to a small (or zero) value, which used to clamp valid
        // genes to cardinality-1 underflowed to UINT32_MAX.
        const std::size_t cardinality = space[i].domain.cardinality();
        if (cardinality == 0)
            throw std::invalid_argument("repair: parameter '" + space[i].name +
                                        "' has an empty domain");
        if (genes[i] >= cardinality) {
            // genes[i] < 2^32 <= any cardinality that overflows uint32, so
            // this branch only runs when cardinality - 1 fits.
            genes[i] = static_cast<std::uint32_t>(cardinality - 1);
            ++changed;
            if (origins != nullptr) (*origins)[i] = obs::GeneOrigin::repair;
        }
    }
    if (changed > 0) genome = Genome{std::move(genes)};
    return changed;
}

}  // namespace nautilus
