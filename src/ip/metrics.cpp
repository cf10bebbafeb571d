#include "ip/metrics.hpp"

#include <array>
#include <stdexcept>

namespace nautilus::ip {

namespace {

struct MetricInfo {
    Metric metric;
    const char* name;
    const char* unit;
    Direction direction;
};

constexpr std::array<MetricInfo, k_metric_count> k_metric_table{{
    {Metric::area_luts, "area_luts", "LUTs", Direction::minimize},
    {Metric::ffs, "ffs", "FFs", Direction::minimize},
    {Metric::brams, "brams", "BRAMs", Direction::minimize},
    {Metric::dsps, "dsps", "DSPs", Direction::minimize},
    {Metric::freq_mhz, "freq_mhz", "MHz", Direction::maximize},
    {Metric::period_ns, "period_ns", "ns", Direction::minimize},
    {Metric::power_mw, "power_mw", "mW", Direction::minimize},
    {Metric::area_mm2, "area_mm2", "mm^2", Direction::minimize},
    {Metric::throughput_msps, "throughput_msps", "MSPS", Direction::maximize},
    {Metric::snr_db, "snr_db", "dB", Direction::maximize},
    {Metric::bisection_gbps, "bisection_gbps", "Gbps", Direction::maximize},
    {Metric::area_delay_product, "area_delay_product", "ns*LUTs", Direction::minimize},
    {Metric::throughput_per_lut, "throughput_per_lut", "MSPS/LUT", Direction::maximize},
    {Metric::latency_ns, "latency_ns", "ns", Direction::minimize},
    {Metric::saturation_injection, "saturation_injection", "flits/cyc/node",
     Direction::maximize},
}};

const MetricInfo& info(Metric m)
{
    for (const auto& row : k_metric_table)
        if (row.metric == m) return row;
    throw std::invalid_argument("unknown metric");
}

}  // namespace

const char* metric_name(Metric m)
{
    return info(m).name;
}

const char* metric_unit(Metric m)
{
    return info(m).unit;
}

Direction metric_default_direction(Metric m)
{
    return info(m).direction;
}

std::optional<Metric> metric_from_name(const std::string& name)
{
    for (const auto& row : k_metric_table)
        if (name == row.name) return row.metric;
    return std::nullopt;
}

double MetricValues::get(Metric m) const
{
    if (!has(m))
        throw std::out_of_range(std::string("MetricValues::get: missing metric ") +
                                metric_name(m));
    return values_[index(m)];
}

MetricValues MetricValues::infeasible_point()
{
    MetricValues mv;
    mv.feasible = false;
    return mv;
}

void derive_composites(MetricValues& values)
{
    if (!values.feasible) return;
    if (!values.has(Metric::period_ns) && values.has(Metric::freq_mhz)) {
        const double f = values.get(Metric::freq_mhz);
        if (f > 0.0) values.set(Metric::period_ns, 1000.0 / f);
    }
    if (!values.has(Metric::area_delay_product) && values.has(Metric::period_ns) &&
        values.has(Metric::area_luts)) {
        values.set(Metric::area_delay_product,
                   values.get(Metric::period_ns) * values.get(Metric::area_luts));
    }
    if (!values.has(Metric::throughput_per_lut) && values.has(Metric::throughput_msps) &&
        values.has(Metric::area_luts)) {
        const double luts = values.get(Metric::area_luts);
        if (luts > 0.0)
            values.set(Metric::throughput_per_lut,
                       values.get(Metric::throughput_msps) / luts);
    }
}

}  // namespace nautilus::ip
