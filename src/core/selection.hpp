#pragma once
// Parent selection strategies.
//
// All strategies take the population's direction-folded fitness scores
// (higher is better; -inf marks infeasible points) and pick the index of a
// parent.  Rank selection is robust to fitness scaling (PyEvolve's default
// ranking behavior); roulette matches the PyEvolve-era baseline the paper
// modified and is the GA default.

#include <cstddef>
#include <span>
#include <vector>

#include "core/rng.hpp"

namespace nautilus {

enum class SelectionKind { rank, tournament, roulette };

const char* selection_name(SelectionKind kind);

struct SelectionConfig {
    SelectionKind kind = SelectionKind::rank;
    // Linear-ranking pressure in [1, 2]: expected copies of the best member.
    double rank_pressure = 1.8;
    std::size_t tournament_size = 2;
};

// Per-generation selection state.  rebuild() hoists everything a parent pick
// needs that depends only on the population's fitness vector (rank order and
// weights, roulette weights, a tournament fitness copy); select() then draws
// one parent.  Rank selection over one member returns 0 without drawing.
class SelectionTable {
public:
    // Throws std::invalid_argument on an empty population or a rank_pressure
    // outside [1, 2].  Buffers are reused across calls.
    void rebuild(std::span<const double> fitness, const SelectionConfig& config);

    // One parent pick.
    std::size_t select(Rng& rng) const;

private:
    SelectionConfig config_{};
    std::size_t n_ = 0;
    std::vector<std::size_t> order_;   // rank: population sorted best-first
    std::vector<double> weights_;      // rank / roulette pick weights
    std::vector<double> fitness_;      // tournament comparisons
    bool uniform_fallback_ = false;    // roulette: whole population infeasible
};

// Indices of `fitness` sorted best-first (ties broken by lower index),
// written into `order` (buffer reused).
void rank_order_into(std::vector<std::size_t>& order, std::span<const double> fitness);

}  // namespace nautilus
