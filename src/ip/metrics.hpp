#pragma once
// Metric identities and per-design metric values.
//
// An IP generator characterizes each design point with a set of metrics:
// hardware implementation metrics (area, frequency), IP-domain metrics
// (throughput, SNR, bisection bandwidth) and composite metrics
// (throughput-per-LUT, area-delay product) -- paper section 4.1.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "core/fitness.hpp"

namespace nautilus::ip {

enum class Metric {
    area_luts,           // equivalent LUTs
    ffs,                 // flip-flops
    brams,               // block RAM primitives
    dsps,                // DSP blocks
    freq_mhz,            // maximum clock frequency
    period_ns,           // clock period (1000 / fmax)
    power_mw,            // total power (ASIC studies)
    area_mm2,            // silicon area (ASIC studies)
    throughput_msps,     // million samples per second (FFT)
    snr_db,              // fixed-point signal-to-noise ratio (FFT)
    bisection_gbps,      // peak network bisection bandwidth (NoC networks)
    area_delay_product,  // clock period x LUTs (Fig. 5)
    throughput_per_lut,  // MSPS / LUTs (Fig. 7)
    latency_ns,          // zero-load packet latency (NoC networks)
    saturation_injection,  // saturation rate, flits/cycle/endpoint (NoC)
};

inline constexpr std::size_t k_metric_count = 15;
static_assert(static_cast<std::size_t>(Metric::saturation_injection) + 1 == k_metric_count,
              "k_metric_count must cover every Metric");

const char* metric_name(Metric m);
const char* metric_unit(Metric m);

// The direction in which the metric usually improves (freq: maximize,
// area: minimize, ...).  Queries may override.
Direction metric_default_direction(Metric m);

// Parse by name; nullopt for unknown strings.
std::optional<Metric> metric_from_name(const std::string& name);

// Metric values for one evaluated design point: one slot per Metric and a
// presence mask, so a model call fills it without touching the heap.
class MetricValues {
public:
    bool feasible = true;

    void set(Metric m, double value)
    {
        values_[index(m)] = value;
        present_ |= bit(m);
    }
    bool has(Metric m) const { return (present_ & bit(m)) != 0; }
    // Throws std::out_of_range when absent.
    double get(Metric m) const;
    std::optional<double> try_get(Metric m) const
    {
        if (!has(m)) return std::nullopt;
        return values_[index(m)];
    }

    // Marks the point infeasible and clears values.
    static MetricValues infeasible_point();

private:
    static std::size_t index(Metric m) { return static_cast<std::size_t>(m); }
    static std::uint32_t bit(Metric m) { return std::uint32_t{1} << index(m); }

    std::array<double, k_metric_count> values_{};
    std::uint32_t present_ = 0;  // bit i set when Metric(i) has a value
};

// Fill in composite metrics from their components when present:
//   area_delay_product  = period_ns * area_luts
//   throughput_per_lut  = throughput_msps / area_luts
//   period_ns           = 1000 / freq_mhz
void derive_composites(MetricValues& values);

}  // namespace nautilus::ip
