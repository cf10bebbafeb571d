#pragma once
// Genome: the genetic representation of one design point.
//
// A genome stores, for each parameter of a ParameterSpace, the index of the
// chosen value within that parameter's domain.  This representation keeps the
// genetic operators domain-agnostic (mutation/crossover act on indices) while
// `numeric_value` / `value_name` recover physical values.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/parameter.hpp"
#include "core/rng.hpp"

namespace nautilus {

class Genome {
public:
    Genome() = default;
    explicit Genome(std::vector<std::uint32_t> value_indices);

    // Genome with every gene set to value index 0 (each domain's first value).
    static Genome zeros(const ParameterSpace& space);

    // Uniformly random point in the space.
    static Genome random(const ParameterSpace& space, Rng& rng);

    // Decode the flattened ordinal `rank` in [0, space cardinality) into a
    // genome (mixed-radix decomposition; parameter 0 is the slowest digit).
    static Genome from_rank(const ParameterSpace& space, std::size_t rank);

    // Inverse of from_rank.
    std::size_t to_rank(const ParameterSpace& space) const;

    std::size_t size() const { return genes_.size(); }
    bool empty() const { return genes_.empty(); }

    std::uint32_t gene(std::size_t i) const;
    void set_gene(std::size_t i, std::uint32_t value_index);

    const std::vector<std::uint32_t>& genes() const { return genes_; }

    // Mutable view of the gene array for the data-oriented breeding hot path
    // (core/breed.hpp).  Callers must keep every index within its domain's
    // cardinality.
    std::span<std::uint32_t> genes_mut() { return std::span<std::uint32_t>(genes_); }

    // Physical value of gene `i` under `space`.
    double numeric_value(const ParameterSpace& space, std::size_t i) const;
    std::string value_name(const ParameterSpace& space, std::size_t i) const;

    // True if every gene index is within its domain's cardinality.
    bool compatible_with(const ParameterSpace& space) const;

    // Stable 64-bit key for caching: genes_key(genes()).
    std::uint64_t key() const;

    // "vcs=4 depth=16 width=64 ..." rendering for logs and examples.
    std::string to_string(const ParameterSpace& space) const;

    bool operator==(const Genome& other) const = default;

private:
    std::vector<std::uint32_t> genes_;
};

// The one genome hash.  Memo, store, checkpoint order and chaos draws all
// key on it, so it must never change.
std::uint64_t genes_key(std::span<const std::uint32_t> genes);

struct GenomeHash {
    std::size_t operator()(const Genome& g) const { return static_cast<std::size_t>(g.key()); }
};

}  // namespace nautilus
