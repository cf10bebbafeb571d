#include "noc/router_model.hpp"

#include <algorithm>
#include <cmath>

namespace nautilus::noc {

namespace {

double log2d(double x)
{
    return std::log2(std::max(x, 1.0));
}

// Area factor of an allocator microarchitecture (cheapest first).
double alloc_area_factor(AllocatorKind k)
{
    switch (k) {
    case AllocatorKind::round_robin: return 1.0;
    case AllocatorKind::separable_input: return 1.35;
    case AllocatorKind::separable_output: return 1.55;
    case AllocatorKind::wavefront: return 2.4;
    }
    return 1.0;
}

// Base logic levels of an allocator microarchitecture.
double alloc_level_base(AllocatorKind k)
{
    switch (k) {
    case AllocatorKind::round_robin: return 3.0;
    case AllocatorKind::separable_input: return 4.0;
    case AllocatorKind::separable_output: return 4.6;
    case AllocatorKind::wavefront: return 5.6;
    }
    return 3.0;
}

double routing_luts_per_port(RoutingKind k)
{
    switch (k) {
    case RoutingKind::dor_xy: return 25.0;
    case RoutingKind::west_first: return 45.0;
    case RoutingKind::adaptive: return 90.0;
    }
    return 25.0;
}

double routing_levels(RoutingKind k)
{
    switch (k) {
    case RoutingKind::dor_xy: return 1.0;
    case RoutingKind::west_first: return 2.0;
    case RoutingKind::adaptive: return 3.5;
    }
    return 1.0;
}

}  // namespace

synth::Resources RouterAreaBreakdown::total() const
{
    return buffers + vc_allocator + sw_allocator + crossbar + routing + output_units +
           pipeline_regs;
}

RouterAreaBreakdown router_area(const RouterConfig& c)
{
    const double p = c.num_ports;
    const double v = c.num_vcs;
    const double d = c.buffer_depth;
    const double w = c.flit_width;

    RouterAreaBreakdown a;

    // Input buffers: dual-ported LUT-RAM (2x bit cost) plus per-VC control
    // (credit counters, state machines, head/tail pointers).
    a.buffers.lutram_bits = p * v * d * w * 2.0;
    a.buffers.luts = p * v * (20.0 + 4.0 * log2d(d));
    a.buffers.ffs = p * v * (10.0 + 2.0 * log2d(d)) + p * v * 8.0;

    // VC allocator: PV x PV arbitration; adaptive routing widens the request
    // matrix (more candidate output VCs per packet).
    const double pv = p * v;
    const double adaptive_factor = c.routing == RoutingKind::adaptive ? 1.3 : 1.0;
    a.vc_allocator.luts =
        alloc_area_factor(c.vc_alloc) * (pv * pv * 1.1 + pv * 8.0) * adaptive_factor;
    a.vc_allocator.ffs = pv * 6.0;

    // Switch allocator: P x P with V-way input stage; speculation adds a
    // parallel non-speculative path.
    const double spec_factor = c.speculative ? 1.5 : 1.0;
    a.sw_allocator.luts =
        alloc_area_factor(c.sw_alloc) * (p * p * 3.0 + pv * 6.0) * spec_factor;
    a.sw_allocator.ffs = p * 4.0 + pv * 2.0;

    // Crossbar: per-output P:1 mux of W bits; the tristate variant trades
    // area for a slower shared-line structure.
    const double xbar_factor = c.crossbar == CrossbarKind::mux ? 1.0 : 0.45;
    a.crossbar.luts = p * w * (p - 1.0) * 0.35 * xbar_factor;

    a.routing.luts = p * routing_luts_per_port(c.routing);

    // Output units: credit tracking + output registers.
    a.output_units.luts = p * (w * 0.15 + v * 12.0);
    a.output_units.ffs = p * w;

    // Pipeline registers between stages.
    if (c.pipeline_stages > 1) {
        a.pipeline_regs.ffs = (c.pipeline_stages - 1) * p * w * 0.6;
        a.pipeline_regs.luts = (c.pipeline_stages - 1) * p * 6.0;
    }
    return a;
}

std::vector<synth::TimingPath> router_paths(const RouterConfig& c)
{
    const double p = c.num_ports;
    const double v = c.num_vcs;
    const double d = c.buffer_depth;
    const double w = c.flit_width;
    const double pv = p * v;

    // Logic levels of the four canonical router functions.
    const double bw_levels = 2.0 + 0.5 * log2d(d) + routing_levels(c.routing);
    double va_levels = alloc_level_base(c.vc_alloc) + 0.8 * log2d(pv);
    if (c.routing == RoutingKind::adaptive) va_levels += 0.8;
    double sa_levels = alloc_level_base(c.sw_alloc) + 0.8 * log2d(p);
    if (c.speculative) sa_levels += 1.2;
    const double st_levels = 1.2 * log2d(p) +
                             (c.crossbar == CrossbarKind::tristate ? 2.8 : 0.8) +
                             w / 256.0;

    // Per-stage register/control overhead.
    constexpr double stage_overhead = 2.0;

    std::vector<synth::TimingPath> paths;
    paths.reserve(4);  // the deepest (3-stage, non-speculative) pipeline has 4 paths
    const double xbar_fanout = w / 8.0;
    auto add = [&paths](std::string name, double levels, double fanout) {
        paths.push_back({std::move(name), levels + stage_overhead, fanout});
    };

    switch (c.pipeline_stages) {
    case 1:
        // Everything in one cycle; synthesis retiming recovers part of the
        // stage-boundary overhead when the whole router is combinational.
        add("bw+va+sa+st", (bw_levels + va_levels + sa_levels + st_levels) * 0.565,
            xbar_fanout);
        break;
    case 2:
        if (c.speculative) {
            // Speculation overlaps VA and SA in the first stage.
            add("bw+va||sa", bw_levels + std::max(va_levels, sa_levels) + 1.0, pv);
            add("st", st_levels, xbar_fanout);
        }
        else {
            add("bw+va", bw_levels + va_levels, pv);
            add("sa+st", sa_levels + st_levels, xbar_fanout);
        }
        break;
    default:
        // 3 stages: {bw, va(||sa), sa, st} mapped onto separate cycles.
        add("bw", bw_levels, d);
        if (c.speculative) {
            add("va||sa", std::max(va_levels, sa_levels) + 1.0, pv);
        }
        else {
            add("va", va_levels, pv);
            add("sa", sa_levels, p);
        }
        add("st", st_levels, xbar_fanout);
        break;
    }
    return paths;
}

synth::DesignDescriptor router_descriptor(const RouterConfig& c)
{
    synth::DesignDescriptor d;
    d.name = c.to_string();
    d.config_key = c.config_key();
    d.resources = router_area(c).total();
    d.paths = router_paths(c);
    d.toggle_rate = 0.18;
    return d;
}

}  // namespace nautilus::noc
