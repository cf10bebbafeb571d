#pragma once
// Deterministic, splittable pseudo-random number generation.
//
// All stochastic behavior in the library (GA operators, sampling, synthesis
// noise) flows from this generator so that experiments are reproducible
// bit-for-bit from a single seed.  The core generator is xoshiro256**
// (public domain, Blackman & Vigna), seeded through splitmix64.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace nautilus {

// The hashes are inline: genes_key runs hash_combine once per gene of
// every genome an engine evaluates.

// splitmix64 step: advances `state` and returns the next 64-bit output.
// Also used standalone as a high-quality integer hash/mixer.
inline std::uint64_t splitmix64(std::uint64_t& state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// Stateless mix of a single 64-bit value (splitmix64 finalizer).
inline std::uint64_t mix64(std::uint64_t value)
{
    std::uint64_t state = value;
    return splitmix64(state);
}

// Combine a running hash with one more 64-bit value.
inline std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value)
{
    return mix64(seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2)));
}

// xoshiro256** generator with convenience distributions.
class Rng {
public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    // UniformRandomBitGenerator interface (usable with <random> adaptors).
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return next_u64(); }

    std::uint64_t next_u64();

    // Uniform double in [0, 1).
    double uniform();

    // Uniform double in [lo, hi).
    double uniform(double lo, double hi);

    // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    // Uniform index in [0, n). Requires n > 0.
    std::size_t index(std::size_t n);

    // True with probability p (clamped to [0, 1]).
    bool bernoulli(double p);

    // Standard normal via Box-Muller.
    double normal();
    double normal(double mean, double stddev);

    // Sample an index proportionally to non-negative `weights`.
    // Requires at least one strictly positive weight.
    std::size_t weighted_index(std::span<const double> weights);

    // Derive an independent child generator (for parallel or nested use).
    Rng split();

    // Raw 256-bit generator state, for checkpoint/resume.  restore() resumes
    // the stream bit-for-bit where state() captured it.
    std::array<std::uint64_t, 4> state() const { return state_; }
    void restore(const std::array<std::uint64_t, 4>& state) { state_ = state; }

    // In-place Fisher-Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& items)
    {
        for (std::size_t i = items.size(); i > 1; --i) {
            std::size_t j = index(i);
            std::swap(items[i - 1], items[j]);
        }
    }

private:
    std::array<std::uint64_t, 4> state_;
};

}  // namespace nautilus
