#include "core/selection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace nautilus {

namespace {

// Weight floor of roulette selection relative to the population fitness
// span: higher values weaken selection pressure.  0.45 calibrates the
// engine's unguided convergence to PyEvolve-era baseline behavior.
constexpr double k_roulette_floor = 0.45;

}  // namespace

const char* selection_name(SelectionKind kind)
{
    switch (kind) {
    case SelectionKind::rank: return "rank";
    case SelectionKind::tournament: return "tournament";
    case SelectionKind::roulette: return "roulette";
    }
    return "?";
}

void rank_order_into(std::vector<std::size_t>& order, std::span<const double> fitness)
{
    order.resize(fitness.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return fitness[a] > fitness[b]; });
}

void SelectionTable::rebuild(std::span<const double> fitness, const SelectionConfig& config)
{
    if (fitness.empty()) throw std::invalid_argument("SelectionTable: empty population");
    if (config.rank_pressure < 1.0 || config.rank_pressure > 2.0)
        throw std::invalid_argument("SelectionTable: rank_pressure out of [1, 2]");
    config_ = config;
    n_ = fitness.size();
    uniform_fallback_ = false;

    switch (config_.kind) {
    case SelectionKind::rank: {
        if (n_ == 1) break;  // select() returns 0 without consuming RNG
        rank_order_into(order_, fitness);
        // Linear ranking: best rank r=0 gets weight `pressure`, worst gets
        // 2 - pressure, interpolating linearly.
        const double pressure = config_.rank_pressure;
        weights_.resize(n_);
        for (std::size_t r = 0; r < n_; ++r) {
            const double frac = static_cast<double>(r) / static_cast<double>(n_ - 1);
            weights_[r] = pressure + ((2.0 - pressure) - pressure) * frac;
        }
        break;
    }
    case SelectionKind::tournament:
        fitness_.assign(fitness.begin(), fitness.end());
        break;
    case SelectionKind::roulette: {
        // Shift scores so the worst finite score maps to a small positive
        // weight; -inf (infeasible) maps to zero.
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        for (double f : fitness) {
            if (!std::isfinite(f)) continue;
            lo = std::min(lo, f);
            hi = std::max(hi, f);
        }
        if (!std::isfinite(lo)) {
            uniform_fallback_ = true;  // entire population infeasible
            break;
        }
        const double span = hi - lo;
        const double floor_weight = span > 0.0 ? span * k_roulette_floor : 1.0;
        weights_.assign(n_, 0.0);
        for (std::size_t i = 0; i < n_; ++i)
            if (std::isfinite(fitness[i])) weights_[i] = (fitness[i] - lo) + floor_weight;
        break;
    }
    }
}

std::size_t SelectionTable::select(Rng& rng) const
{
    if (n_ == 0) throw std::logic_error("SelectionTable::select before rebuild");
    switch (config_.kind) {
    case SelectionKind::rank: {
        if (n_ == 1) return 0;
        const std::size_t pick = rng.weighted_index(weights_);
        return order_[pick];
    }
    case SelectionKind::tournament: {
        std::size_t best = rng.index(n_);
        for (std::size_t i = 1; i < std::max<std::size_t>(config_.tournament_size, 1); ++i) {
            const std::size_t challenger = rng.index(n_);
            if (fitness_[challenger] > fitness_[best]) best = challenger;
        }
        return best;
    }
    case SelectionKind::roulette:
        if (uniform_fallback_) return rng.index(n_);
        return rng.weighted_index(weights_);
    }
    throw std::logic_error("SelectionTable: unknown selection kind");
}

}  // namespace nautilus
