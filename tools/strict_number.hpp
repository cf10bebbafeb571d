#pragma once
// Strict numbers for command-line values, shared by nautilus_cli and
// nautilus_trace.  The standard converters throw on garbage and accept
// partial matches ("1e99" reads as 1, " -5" wraps around); these demand that
// the whole token convert and return nullopt otherwise, so the caller can
// name the flag and exit 2 instead of letting an exception reach
// std::terminate.

#include <cmath>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>

namespace nautilus::tools {

// A non-negative decimal integer that fits in 64 bits.
inline std::optional<std::uint64_t> parse_count(const std::string& text)
{
    if (text.empty() || text[0] < '0' || text[0] > '9') return std::nullopt;
    try {
        std::size_t used = 0;
        const unsigned long long v = std::stoull(text, &used);
        if (used == text.size()) return static_cast<std::uint64_t>(v);
    }
    catch (const std::exception&) {
    }
    return std::nullopt;
}

// A finite number.
inline std::optional<double> parse_number(const std::string& text)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(text, &used);
        if (used == text.size() && std::isfinite(v)) return v;
    }
    catch (const std::exception&) {
    }
    return std::nullopt;
}

}  // namespace nautilus::tools
