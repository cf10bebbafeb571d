#pragma once
// The per-call GA breeding operators as they stood before the data-oriented
// breeding core (core/breed.hpp) replaced them, kept verbatim as the oracle
// for the draw-for-draw twin tests in test_breed.cpp.  Test-only: nothing in
// the library calls these.
//
// Each function consumes the RNG exactly as its production counterpart must:
//  * select_parent         <-> SelectionTable::select
//  * crossover             <-> crossover (in place on gene spans)
//  * mutate                <-> BreedContext::mutate
//  * breed_population_scalar <-> BreedContext::breed

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/breed.hpp"
#include "core/genome.hpp"
#include "core/operators.hpp"
#include "core/rng.hpp"
#include "core/selection.hpp"

namespace nautilus::reference {

// Select one parent index; rebuilds the rank order and weights per pick.
std::size_t select_parent(std::span<const double> fitness, const SelectionConfig& config,
                          Rng& rng);

// Indices of `fitness` sorted best-first (ties broken by lower index).
std::vector<std::size_t> rank_order(std::span<const double> fitness);

// The production context plus the per-call capture hooks.
struct MutationContext : nautilus::MutationContext {
    MutationStats* stats = nullptr;
    obs::GeneOrigin* origins = nullptr;
};

// Mutate `genome` in place, recomputing probabilities and distributions per
// call; returns the number of genes changed.
std::size_t mutate(Genome& genome, const MutationContext& ctx, Rng& rng);

// Two children from copies of two parents.
std::pair<Genome, Genome> crossover(const Genome& a, const Genome& b, CrossoverKind kind,
                                    Rng& rng, std::vector<std::uint8_t>* swapped = nullptr);

// The per-call GA breed loop: overwrites `population` with the next
// generation and returns what it did.
BreedStats breed_population_scalar(std::vector<Genome>& population,
                                   std::span<const double> fitness,
                                   const BreedConfig& config, const ParameterSpace& space,
                                   const HintSet& hints, double mutation_rate,
                                   std::size_t generation, Rng& rng, bool with_stats,
                                   BirthLog* births = nullptr);

}  // namespace nautilus::reference
