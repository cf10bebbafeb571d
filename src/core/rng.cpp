#include "core/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace nautilus {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    // Seed the full 256-bit state through splitmix64 as recommended by the
    // xoshiro authors; guards against all-zero state.
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    // Span in unsigned arithmetic: hi - lo overflows int64 (UB) for wide
    // ranges like [-2, INT64_MAX]; the uint64 difference is well-defined and
    // identical for every range where the signed form was valid.
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = (~std::uint64_t{0}) - (~std::uint64_t{0}) % span;
    std::uint64_t draw;
    do {
        draw = next_u64();
    } while (draw >= limit);
    // Add in unsigned arithmetic too: for wide ranges the offset exceeds
    // INT64_MAX, so `lo + int64(offset)` would overflow.  The final cast is
    // modular (well-defined) and lands back inside [lo, hi].
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + draw % span);
}

std::size_t Rng::index(std::size_t n)
{
    if (n == 0) throw std::invalid_argument("Rng::index: n == 0");
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

bool Rng::bernoulli(double p)
{
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
}

double Rng::normal()
{
    // Box-Muller; discards the second variate for simplicity.
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

std::size_t Rng::weighted_index(std::span<const double> weights)
{
    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0) throw std::invalid_argument("Rng::weighted_index: negative weight");
        total += w;
    }
    if (total <= 0.0) throw std::invalid_argument("Rng::weighted_index: zero total weight");
    double draw = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        draw -= weights[i];
        if (draw < 0.0) return i;
    }
    return weights.size() - 1;  // guard against accumulated rounding
}

Rng Rng::split()
{
    return Rng{next_u64()};
}

}  // namespace nautilus
