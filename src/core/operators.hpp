#pragma once
// Genetic operator kernels: hint-aware mutation probabilities and value
// distributions, and crossover.  BreedContext::mutate (core/breed.hpp)
// applies the mutation kernels to a genome.
//
// The baseline behavior (HintSet::none) matches a PyEvolve-style integer GA:
// each gene mutates independently with probability `mutation_rate` to a
// uniformly random different value; crossover is single-point.
//
// Hints modify the two stochastic choices of mutation:
//  * *which* gene mutates  -- importance (+ decay) skews per-gene mutation
//    probability while preserving the expected number of mutations;
//  * *what value* it takes -- bias tilts the step direction, target
//    concentrates values near a region, step_scale controls step size.
// Every modification is blended with the uniform baseline through the
// confidence knob c:  guided = (1-c) * uniform + c * directed.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/genome.hpp"
#include "core/hints.hpp"
#include "core/parameter.hpp"
#include "core/rng.hpp"
#include "obs/lineage.hpp"

namespace nautilus {

// Tally of what the hint machinery actually did during mutation, classified
// by the value distribution each gene draw used: bias-directed,
// target-directed, or plain uniform (no hint, unordered domain, or
// confidence 0).  Engines aggregate one of these per generation and emit it
// in the "breed" trace event, making hint behavior auditable per run.
struct MutationStats {
    std::uint64_t genomes = 0;        // genomes passed to mutation
    std::uint64_t genes_mutated = 0;  // genes actually changed
    std::uint64_t bias_draws = 0;
    std::uint64_t target_draws = 0;
    std::uint64_t uniform_draws = 0;

    void reset() { *this = MutationStats{}; }
};

// What the per-gene mutation probabilities depend on.
struct MutationContext {
    const ParameterSpace* space = nullptr;
    const HintSet* hints = nullptr;  // already direction-folded
    double mutation_rate = 0.1;      // baseline per-gene probability
    std::size_t generation = 0;      // for importance decay
};

// Per-gene mutation probabilities for this generation.  With no hints every
// entry equals mutation_rate; with importance hints the probabilities are
// skewed by (blended) normalized effective importance, preserving the mean
// so the overall mutation pressure matches the baseline.  Capped at 0.95.
std::vector<double> gene_mutation_probabilities(const MutationContext& ctx);

// Probability distribution over the value indices a mutating gene may take,
// given its current value.  The current index always gets probability 0 (a
// mutation must change the gene); for single-value domains the result is
// all-zero.  Exposed for direct property testing.
std::vector<double> value_distribution(const ParamDomain& domain, const ParamHints& hints,
                                       double confidence, std::uint32_t current);

// Allocation-free variant for the breeding hot path (core/breed.hpp): the
// distribution is written into `w` (resized to the domain cardinality) and
// `dir`/`raw` serve as scratch for the directed kernels.  Output is
// bit-identical to value_distribution.
void value_distribution_into(std::vector<double>& w, std::vector<double>& dir,
                             std::vector<double>& raw, const ParamDomain& domain,
                             const ParamHints& hints, double confidence,
                             std::uint32_t current);

enum class CrossoverKind { single_point, two_point, uniform };

const char* crossover_name(CrossoverKind kind);

// Cross two genomes in place: on return `a` and `b` are the two children.
// The spans must have equal, nonzero size.  single_point/two_point exchange
// contiguous gene runs; uniform exchanges each gene with probability 1/2.
// When `swapped` is non-null it is resized to the gene count and entry i is
// set to 1 iff gene i was exchanged (the mask is shared by both children);
// capturing it draws nothing from the RNG.
void crossover(std::span<std::uint32_t> a, std::span<std::uint32_t> b, CrossoverKind kind,
               Rng& rng, std::vector<std::uint8_t>* swapped = nullptr);

// Force `genome` back into `space`: truncate or zero-extend to the space's
// parameter count and clamp every out-of-domain gene index to its domain's
// last value.  Used when seeding populations from external sources (files,
// checkpoints of a since-grown space).  Returns the number of genes changed;
// afterwards genome.compatible_with(space) always holds.  When `origins` is
// non-null it is resized to the space's parameter count and every changed
// gene's slot is overwritten with GeneOrigin::repair (untouched slots keep
// their prior classification; slots added by extension are repair too).
std::size_t repair(Genome& genome, const ParameterSpace& space,
                   std::vector<obs::GeneOrigin>* origins = nullptr);

}  // namespace nautilus
