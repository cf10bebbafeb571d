#include "core/genome.hpp"

#include <stdexcept>

namespace nautilus {

Genome::Genome(std::vector<std::uint32_t> value_indices) : genes_(std::move(value_indices)) {}

Genome Genome::zeros(const ParameterSpace& space)
{
    return Genome{std::vector<std::uint32_t>(space.size(), 0)};
}

Genome Genome::random(const ParameterSpace& space, Rng& rng)
{
    std::vector<std::uint32_t> genes(space.size());
    for (std::size_t i = 0; i < space.size(); ++i)
        genes[i] = static_cast<std::uint32_t>(rng.index(space[i].domain.cardinality()));
    return Genome{std::move(genes)};
}

Genome Genome::from_rank(const ParameterSpace& space, std::size_t rank)
{
    const auto total = space.exact_cardinality();
    if (!total) throw std::invalid_argument("Genome::from_rank: space too large to enumerate");
    if (rank >= *total) throw std::out_of_range("Genome::from_rank: rank out of range");
    std::vector<std::uint32_t> genes(space.size());
    for (std::size_t i = space.size(); i-- > 0;) {
        const std::size_t card = space[i].domain.cardinality();
        genes[i] = static_cast<std::uint32_t>(rank % card);
        rank /= card;
    }
    return Genome{std::move(genes)};
}

std::size_t Genome::to_rank(const ParameterSpace& space) const
{
    if (!compatible_with(space))
        throw std::invalid_argument("Genome::to_rank: genome incompatible with space");
    std::size_t rank = 0;
    for (std::size_t i = 0; i < space.size(); ++i) {
        rank = rank * space[i].domain.cardinality() + genes_[i];
    }
    return rank;
}

std::uint32_t Genome::gene(std::size_t i) const
{
    if (i >= genes_.size()) throw std::out_of_range("Genome::gene: index out of range");
    return genes_[i];
}

void Genome::set_gene(std::size_t i, std::uint32_t value_index)
{
    if (i >= genes_.size()) throw std::out_of_range("Genome::set_gene: index out of range");
    genes_[i] = value_index;
}

double Genome::numeric_value(const ParameterSpace& space, std::size_t i) const
{
    return space[i].domain.numeric_value(gene(i));
}

std::string Genome::value_name(const ParameterSpace& space, std::size_t i) const
{
    return space[i].domain.value_name(gene(i));
}

bool Genome::compatible_with(const ParameterSpace& space) const
{
    if (genes_.size() != space.size()) return false;
    for (std::size_t i = 0; i < genes_.size(); ++i)
        if (genes_[i] >= space[i].domain.cardinality()) return false;
    return true;
}

std::uint64_t genes_key(std::span<const std::uint32_t> genes)
{
    std::uint64_t h = 0x6a09e667f3bcc908ull;
    for (std::uint32_t g : genes) h = hash_combine(h, g);
    return hash_combine(h, genes.size());
}

std::uint64_t Genome::key() const
{
    return genes_key(genes_);
}

std::string Genome::to_string(const ParameterSpace& space) const
{
    if (!compatible_with(space)) return "<incompatible genome>";
    std::string out;
    for (std::size_t i = 0; i < genes_.size(); ++i) {
        if (i > 0) out += ' ';
        out += space[i].name;
        out += '=';
        out += value_name(space, i);
    }
    return out;
}

}  // namespace nautilus
