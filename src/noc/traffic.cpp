#include "noc/traffic.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace nautilus::noc {

namespace {

int digit(int value, int pos, int base = 4)
{
    for (int i = 0; i < pos; ++i) value /= base;
    return value % base;
}

int with_digit(int value, int pos, int new_digit, int base = 4)
{
    int scale = 1;
    for (int i = 0; i < pos; ++i) scale *= base;
    const int old = digit(value, pos, base);
    return value + (new_digit - old) * scale;
}

}  // namespace

TopologyGraph TopologyGraph::build(const TopologyInfo& info)
{
    TopologyGraph g;
    g.info_ = info;
    const auto routers = static_cast<std::size_t>(info.num_routers);
    g.lanes_.resize(routers * routers);
    auto add_channel = [&g, routers](int src, int dst) {
        g.lanes_[static_cast<std::size_t>(src) * routers + static_cast<std::size_t>(dst)]
            .push_back(static_cast<std::uint32_t>(g.channels_.size()));
        g.channels_.push_back({src, dst});
    };

    const int r = info.num_routers;
    switch (info.kind) {
    case TopologyKind::ring:
    case TopologyKind::conc_ring:
        for (int i = 0; i < r; ++i) {
            add_channel(i, (i + 1) % r);
            add_channel((i + 1) % r, i);
        }
        break;
    case TopologyKind::double_ring:
    case TopologyKind::conc_double_ring:
        // Two parallel lanes per direction.
        for (int lane = 0; lane < 2; ++lane) {
            for (int i = 0; i < r; ++i) {
                add_channel(i, (i + 1) % r);
                add_channel((i + 1) % r, i);
            }
        }
        break;
    case TopologyKind::mesh:
    case TopologyKind::torus: {
        const int side = static_cast<int>(std::lround(std::sqrt(r)));
        const bool wrap = info.kind == TopologyKind::torus;
        auto id = [side](int x, int y) { return y * side + x; };
        for (int y = 0; y < side; ++y) {
            for (int x = 0; x < side; ++x) {
                if (x + 1 < side || wrap) {
                    add_channel(id(x, y), id((x + 1) % side, y));
                    add_channel(id((x + 1) % side, y), id(x, y));
                }
                if (y + 1 < side || wrap) {
                    add_channel(id(x, y), id(x, (y + 1) % side));
                    add_channel(id(x, (y + 1) % side), id(x, y));
                }
            }
        }
        break;
    }
    case TopologyKind::fat_tree: {
        // 4-ary n-tree: `levels` rows of endpoints/4 switches.  Switch
        // <l, w> (w has n-1 base-4 digits) links up to <l+1, w'> where w'
        // differs from w only in digit l.
        const int levels = static_cast<int>(std::lround(std::log2(info.endpoints) / 2.0));
        const int per_level = info.endpoints / 4;
        auto id = [per_level](int level, int w) { return level * per_level + w; };
        for (int level = 0; level + 1 < levels; ++level) {
            for (int w = 0; w < per_level; ++w) {
                for (int d = 0; d < 4; ++d) {
                    const int up = with_digit(w, level, d);
                    add_channel(id(level, w), id(level + 1, up));
                    add_channel(id(level + 1, up), id(level, w));
                }
            }
        }
        break;
    }
    case TopologyKind::butterfly: {
        // 4-ary n-fly: `stages` columns of endpoints/4 switches; the link
        // from stage s output port d rewrites row digit (stages-2-s) to d.
        const int stages = static_cast<int>(std::lround(std::log2(info.endpoints) / 2.0));
        const int per_stage = info.endpoints / 4;
        auto id = [per_stage](int stage, int w) { return stage * per_stage + w; };
        for (int stage = 0; stage + 1 < stages; ++stage) {
            const int pos = stages - 2 - stage;
            for (int w = 0; w < per_stage; ++w) {
                for (int d = 0; d < 4; ++d)
                    add_channel(id(stage, w), id(stage + 1, with_digit(w, pos, d)));
            }
        }
        break;
    }
    }
    return g;
}

int TopologyGraph::endpoint_router(int endpoint) const
{
    if (endpoint < 0 || endpoint >= info_.endpoints)
        throw std::out_of_range("TopologyGraph::endpoint_router: bad endpoint");
    switch (info_.kind) {
    case TopologyKind::fat_tree:
    case TopologyKind::butterfly:
        return endpoint / 4;  // leaf/first-stage switch row
    default:
        return endpoint / info_.concentration;
    }
}

std::size_t TopologyGraph::channel_index(int src, int dst, int lane) const
{
    const auto& lanes = lanes_[static_cast<std::size_t>(src) *
                                   static_cast<std::size_t>(info_.num_routers) +
                               static_cast<std::size_t>(dst)];
    if (lane >= 0 && static_cast<std::size_t>(lane) < lanes.size())
        return lanes[static_cast<std::size_t>(lane)];
    throw std::logic_error("TopologyGraph::channel_index: missing channel (routing bug)");
}

std::vector<std::size_t> TopologyGraph::route(int src_endpoint, int dst_endpoint) const
{
    std::vector<std::size_t> path;
    route(src_endpoint, dst_endpoint, path);
    return path;
}

void TopologyGraph::route(int src_endpoint, int dst_endpoint,
                          std::vector<std::size_t>& path) const
{
    const int src = endpoint_router(src_endpoint);
    const int dst = endpoint_router(dst_endpoint);
    path.clear();
    const int r = info_.num_routers;

    switch (info_.kind) {
    case TopologyKind::ring:
    case TopologyKind::conc_ring:
    case TopologyKind::double_ring:
    case TopologyKind::conc_double_ring: {
        if (src == dst) return;
        const bool two_lanes = info_.kind == TopologyKind::double_ring ||
                               info_.kind == TopologyKind::conc_double_ring;
        const int lane = two_lanes ? src_endpoint % 2 : 0;
        const int forward = (dst - src + r) % r;
        const int step = forward <= r - forward ? 1 : -1;
        int at = src;
        while (at != dst) {
            const int next = (at + step + r) % r;
            path.push_back(channel_index(at, next, lane));
            at = next;
        }
        return;
    }
    case TopologyKind::mesh:
    case TopologyKind::torus: {
        const int side = static_cast<int>(std::lround(std::sqrt(r)));
        const bool wrap = info_.kind == TopologyKind::torus;
        int x = src % side;
        int y = src / side;
        const int dx = dst % side;
        const int dy = dst / side;
        auto id = [side](int cx, int cy) { return cy * side + cx; };
        auto step_toward = [&](int from, int to) {
            if (!wrap) return to > from ? 1 : -1;
            const int fwd = (to - from + side) % side;
            return fwd <= side - fwd ? 1 : -1;
        };
        while (x != dx) {  // X first (dimension-order)
            const int nx = (x + step_toward(x, dx) + side) % side;
            path.push_back(channel_index(id(x, y), id(nx, y)));
            x = nx;
        }
        while (y != dy) {
            const int ny = (y + step_toward(y, dy) + side) % side;
            path.push_back(channel_index(id(x, y), id(x, ny)));
            y = ny;
        }
        return;
    }
    case TopologyKind::fat_tree: {
        if (src == dst) return;
        const int levels = static_cast<int>(std::lround(std::log2(info_.endpoints) / 2.0));
        const int per_level = info_.endpoints / 4;
        auto id = [per_level](int level, int w) { return level * per_level + w; };
        // Lowest common level: all leaf-id digits at positions >= common
        // must already agree between the two leaf switches.
        int common = 0;
        for (int i = 0; i < levels - 1; ++i)
            if (digit(src, i) != digit(dst, i)) common = i + 1;
        // Up phase: vary digit l, chosen from the destination endpoint's low
        // digits (spreads load deterministically).
        int w = src;
        for (int l = 0; l < common; ++l) {
            const int next = with_digit(w, l, digit(dst_endpoint, l));
            path.push_back(channel_index(id(l, w), id(l + 1, next)));
            w = next;
        }
        // Down phase: restore the destination's digits.
        for (int l = common; l-- > 0;) {
            const int next = with_digit(w, l, digit(dst, l));
            path.push_back(channel_index(id(l + 1, w), id(l, next)));
            w = next;
        }
        return;
    }
    case TopologyKind::butterfly: {
        const int stages = static_cast<int>(std::lround(std::log2(info_.endpoints) / 2.0));
        const int per_stage = info_.endpoints / 4;
        auto id = [per_stage](int stage, int w) { return stage * per_stage + w; };
        // Destination-digit routing MSB-first; always traverses every stage.
        int w = src;
        for (int stage = 0; stage + 1 < stages; ++stage) {
            const int pos = stages - 2 - stage;
            const int next = with_digit(w, pos, digit(dst, pos));
            path.push_back(channel_index(id(stage, w), id(stage + 1, next)));
            w = next;
        }
        return;
    }
    }
}

TrafficAnalysis analyze_uniform_traffic(const TopologyGraph& graph)
{
    TrafficAnalysis out;
    out.channel_load.assign(graph.channels().size(), 0.0);
    const int n = graph.num_endpoints();
    double total_hops = 0.0;
    std::size_t pairs = 0;

    std::vector<std::size_t> path;
    for (int s = 0; s < n; ++s) {
        for (int d = 0; d < n; ++d) {
            if (s == d) continue;
            graph.route(s, d, path);
            total_hops += static_cast<double>(path.size());
            ++pairs;
            for (std::size_t link : path) out.channel_load[link] += 1.0;
        }
    }

    out.avg_hops = total_hops / static_cast<double>(pairs);
    // Each endpoint injects 1 flit/cycle spread over N-1 destinations.
    double max_count = 0.0;
    for (double& load : out.channel_load) {
        load /= static_cast<double>(n - 1);
        max_count = std::max(max_count, load);
    }
    out.max_channel_load = max_count;
    out.saturation_injection = max_count > 0.0 ? 1.0 / max_count : 1.0;
    return out;
}

double latency_at_load_cycles(const TrafficAnalysis& traffic, int router_pipeline,
                              int packet_bits, int flit_width, double injection)
{
    if (injection < 0.0)
        throw std::invalid_argument("latency_at_load_cycles: negative injection rate");
    const double base =
        zero_load_latency_cycles(traffic, router_pipeline, packet_bits, flit_width);
    if (injection == 0.0) return base;
    if (injection >= traffic.saturation_injection)
        return std::numeric_limits<double>::infinity();

    // Expected queueing delay = sum over channels of
    //   P(packet crosses channel) * W_channel,
    // with the M/D/1 wait W = rho / (2 (1 - rho)) at utilization
    // rho = injection * channel_load.  P(cross) = load / N, and the load
    // normalization gives N = sum(load) / avg_hops.
    double load_sum = 0.0;
    for (double load : traffic.channel_load) load_sum += load;
    if (load_sum <= 0.0 || traffic.avg_hops <= 0.0) return base;
    const double endpoints = load_sum / traffic.avg_hops;

    double queueing = 0.0;
    for (double load : traffic.channel_load) {
        const double rho = injection * load;
        if (rho <= 0.0) continue;
        queueing += (load / endpoints) * rho / (2.0 * (1.0 - rho));
    }
    return base + queueing;
}

std::vector<LoadLatencyPoint> load_latency_curve(const TrafficAnalysis& traffic,
                                                 int router_pipeline, int packet_bits,
                                                 int flit_width, int points)
{
    if (points < 2) throw std::invalid_argument("load_latency_curve: need >= 2 points");
    std::vector<LoadLatencyPoint> curve;
    curve.reserve(static_cast<std::size_t>(points));
    for (int i = 0; i < points; ++i) {
        // Stop just short of saturation, where the M/D/1 wait diverges.
        const double injection = traffic.saturation_injection * 0.98 *
                                 static_cast<double>(i) / static_cast<double>(points - 1);
        curve.push_back({injection, latency_at_load_cycles(traffic, router_pipeline,
                                                           packet_bits, flit_width,
                                                           injection)});
    }
    return curve;
}

double zero_load_latency_cycles(const TrafficAnalysis& traffic, int router_pipeline,
                                int packet_bits, int flit_width)
{
    if (router_pipeline < 1)
        throw std::invalid_argument("zero_load_latency_cycles: pipeline must be >= 1");
    if (packet_bits <= 0 || flit_width <= 0)
        throw std::invalid_argument("zero_load_latency_cycles: bad packet/flit size");
    const double serialization =
        std::ceil(static_cast<double>(packet_bits) / static_cast<double>(flit_width));
    // Each hop: router pipeline + one link cycle; plus source/destination
    // routers and serialization of the packet body.
    return (traffic.avg_hops + 1.0) * (router_pipeline + 1.0) + serialization;
}

}  // namespace nautilus::noc
