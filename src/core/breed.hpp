#pragma once
// Data-oriented breeding core (DESIGN.md section 10).
//
// Everything a breed phase needs that is invariant within a generation is
// hoisted into per-generation state with reusable scratch buffers:
//  * SelectionTable (core/selection.hpp) -- rank order + weights, roulette
//    weights, tournament fitness copy; one table per generation.
//  * GeneMatrix      -- the population as one contiguous row-major gene
//    matrix; each row is a genome view, so breeding touches one allocation
//    instead of one heap vector per child.
//  * BreedContext    -- per-run arena: hoisted gene mutation probabilities
//    (rebuilt per generation), a cross-generation memo of
//    value_distribution() results keyed (parameter, current value), the
//    pair step both the GA and NSGA-II breed through, and the matrices and
//    scratch the GA breed loop writes into.  Steady-state breeding performs
//    no per-child allocation.
//  * DiversityCounter -- incremental O(pop * genes) reformulation of the mean
//    pairwise normalized Hamming distance (was O(pop^2 * genes)).
//
// Determinism contract: what may consume RNG and in which order is part of
// the public contract -- a seed reproduces a run bit for bit, pinned by the
// golden digests in tests/test_golden.cpp.  See DESIGN.md section 10 before
// touching anything here.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/genome.hpp"
#include "core/hints.hpp"
#include "core/operators.hpp"
#include "core/parameter.hpp"
#include "core/rng.hpp"
#include "core/selection.hpp"

namespace nautilus {

// The population as a contiguous row-major gene matrix.  Row r is the genome
// view of member r; the breeding and diversity paths operate on these views
// instead of per-member heap vectors.  (Row-major keeps one genome
// contiguous, which is what crossover/mutation walk; the diversity counter
// walks columns strided, which is cheap at paper-scale gene counts.)
class GeneMatrix {
public:
    void reset(std::size_t rows, std::size_t genes);
    void load(std::span<const Genome> population);

    std::size_t rows() const { return genes_ == 0 ? 0 : data_.size() / genes_; }
    std::size_t genes() const { return genes_; }

    std::span<std::uint32_t> row(std::size_t r)
    {
        return std::span<std::uint32_t>(data_).subspan(r * genes_, genes_);
    }
    std::span<const std::uint32_t> row(std::size_t r) const
    {
        return std::span<const std::uint32_t>(data_).subspan(r * genes_, genes_);
    }

private:
    std::size_t genes_ = 0;
    std::vector<std::uint32_t> data_;
};

// Per-child provenance captured during one breed pass, in next-generation
// fill order.  Parents are *population indices* of the outgoing generation;
// the engine owns the mapping from slots to lineage birth ids.
struct ChildProvenance {
    std::uint32_t parent_a = 0;  // the parent the child started as a copy of
    std::uint32_t parent_b = 0;  // the crossover partner
    bool crossed = false;
    std::vector<obs::GeneOrigin> origins;  // one entry per gene
};

// Zero-RNG-impact birth log filled by breed() when requested: recording it
// never changes what the breed phase draws (DESIGN.md section 10).
struct BirthLog {
    std::vector<std::uint32_t> elites;      // population indices carried unchanged
    std::vector<ChildProvenance> children;  // elites.size() + children.size() == pop

    void clear()
    {
        elites.clear();
        children.clear();
    }
};

// Per-generation knobs of the GA breed phase (the determinism-relevant
// subset of GaConfig).
struct BreedConfig {
    SelectionConfig selection{};
    CrossoverKind crossover = CrossoverKind::single_point;
    double crossover_rate = 0.9;
    std::size_t elitism = 1;
    std::size_t population_size = 10;
};

// What one breed phase did; feeds the "breed" trace event.
struct BreedStats {
    std::size_t crossovers = 0;
    MutationStats mutation;
};

// Per-run breeding arena.  Construct once per run, call begin_generation()
// when the generation advances (rebuilds the hoisted gene mutation
// probabilities; the value-distribution memo survives, since
// value_distribution has no generation dependence), then breed() or mutate().
class BreedContext {
public:
    BreedContext(const ParameterSpace& space, const HintSet& hints, double mutation_rate);

    // Rebuild generation-dependent state (importance decay moves the per-gene
    // mutation probabilities).  Idempotent per generation.
    void begin_generation(std::size_t generation);
    std::size_t generation() const { return generation_; }

    // Hint-aware mutation with hoisted probabilities and memoized value
    // distributions; returns the number of genes changed.  Each gene mutates
    // with its gene_probs() probability to a value drawn from distribution().
    // `origins` (optional, one slot per gene) gets each mutated gene's draw
    // class.
    std::size_t mutate(std::span<std::uint32_t> genes, Rng& rng,
                       MutationStats* stats = nullptr,
                       obs::GeneOrigin* origins = nullptr);
    std::size_t mutate(Genome& genome, Rng& rng, MutationStats* stats = nullptr,
                       obs::GeneOrigin* origins = nullptr);

    // One breeding pair, the step the GA and NSGA-II breed loops share.  `a`
    // and `b` hold copies of parents A and B.  Draws, in order:
    // bernoulli(crossover_rate); on success the crossover draws (a and b
    // crossed in place); the mutation of a; the mutation of b when
    // `mutate_b`.  `origins_a`/`origins_b` (optional, one slot per gene)
    // receive each child's gene origins at zero RNG cost: parent_a for genes
    // the child kept, parent_b for genes crossover exchanged, then the draw
    // class of every mutated gene.  Returns whether crossover happened.
    bool breed_pair(std::span<std::uint32_t> a, std::span<std::uint32_t> b,
                    double crossover_rate, CrossoverKind kind, Rng& rng, bool mutate_b,
                    MutationStats* stats = nullptr, obs::GeneOrigin* origins_a = nullptr,
                    obs::GeneOrigin* origins_b = nullptr);

    // Breed the next generation in place: the `elitism` best members carried
    // unchanged, then select, select, breed_pair until the population is
    // full (an odd last child's partner is neither mutated nor kept).
    // `population` must have config.population_size members compatible with
    // the space; it is overwritten with the children.  `births` (optional)
    // is cleared and filled with per-child provenance at zero RNG cost.
    BreedStats breed(std::vector<Genome>& population, std::span<const double> fitness,
                     const BreedConfig& config, Rng& rng, bool with_stats,
                     BirthLog* births = nullptr);

    // The hoisted per-gene mutation probabilities of the current generation.
    std::span<const double> gene_probs() const { return probs_; }

    // The (memoized) mutation value distribution for `param` at `current`;
    // identical to value_distribution(space[param], hints[param], confidence,
    // current).  The reference is invalidated by the next distribution()
    // call for an unmemoized (large) domain.
    const std::vector<double>& distribution(std::size_t param, std::uint32_t current);

    // Memo accounting (for the engine bench and tests).
    std::uint64_t dist_memo_hits() const { return memo_hits_; }
    std::uint64_t dist_memo_misses() const { return memo_misses_; }

private:
    enum class DrawKind : std::uint8_t { uniform, bias, target };

    const ParameterSpace& space_;
    const HintSet& hints_;
    double mutation_rate_ = 0.1;
    std::size_t generation_ = 0;
    bool generation_valid_ = false;

    std::vector<double> probs_;            // hoisted per-gene mutation probabilities
    std::vector<std::size_t> card_;        // per-param domain cardinality
    std::vector<DrawKind> draw_kind_;      // per-param stats classification
    // memo_[i][current] caches value_distribution for small domains (empty
    // vector = not yet computed; computed distributions are never empty since
    // cardinality >= 2 there).  Large domains fall back to scratch_dist_.
    std::vector<std::vector<std::vector<double>>> memo_;
    std::vector<double> scratch_dist_;
    std::vector<double> scratch_dir_;
    std::vector<double> scratch_raw_;
    std::uint64_t memo_hits_ = 0;
    std::uint64_t memo_misses_ = 0;

    // Breeding arena.
    SelectionTable table_;
    GeneMatrix parents_;
    GeneMatrix children_;                  // population_size rows + 1 spare
    std::vector<std::size_t> elite_order_;
    std::vector<std::uint8_t> swap_mask_;  // breed_pair crossover capture scratch
};

// Incremental mean pairwise normalized Hamming distance: feed each genome
// once (O(genes) per add via per-gene value counts), read value() at any
// point.  Integer-exact pair counting, so the result is deterministic and
// independent of insertion order.
class DiversityCounter {
public:
    // Forget all members; keep buffer capacity.
    void reset(std::size_t genes);

    void add(std::span<const std::uint32_t> genes);
    void add(const Genome& genome) { add(std::span<const std::uint32_t>(genome.genes())); }

    // 0 = all clones, 1 = every pair differs in every gene; 0 with < 2
    // members or no genes.
    double value() const;

    // One-shot convenience over a whole population (reuses buffers).
    double measure(std::span<const Genome> population);

private:
    std::size_t genes_ = 0;
    std::size_t members_ = 0;
    std::uint64_t same_pairs_ = 0;  // pairs agreeing on a gene, summed over genes
    std::vector<std::vector<std::uint32_t>> counts_;  // per gene: value -> count
};

}  // namespace nautilus
