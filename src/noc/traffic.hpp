#pragma once
// Topology graphs, deterministic routing and channel-load analysis.
//
// The paper's evaluation cost includes "simulations" next to synthesis.
// This module is the network-performance side of that: it *constructs* each
// topology family as an explicit graph, routes every source/destination
// endpoint pair with the family's canonical deterministic algorithm, and
// derives uniform-traffic channel loads.  From those come measured (not
// formula) average hop counts, zero-load latency, and the saturation
// injection rate (1 / max normalized channel load) -- the standard
// first-order network-performance analysis (Dally & Towles).

#include <cstdint>
#include <vector>

#include "noc/topology.hpp"

namespace nautilus::noc {

// One unidirectional channel between routers.
struct Channel {
    int src = 0;
    int dst = 0;
};

// An instantiated topology: routers, channels and endpoint attachment.
class TopologyGraph {
public:
    // Build the explicit graph for a topology family instance.
    static TopologyGraph build(const TopologyInfo& info);

    const TopologyInfo& info() const { return info_; }
    int num_routers() const { return info_.num_routers; }
    int num_endpoints() const { return info_.endpoints; }
    const std::vector<Channel>& channels() const { return channels_; }

    // Router an endpoint attaches to (injection and ejection point; for the
    // butterfly, injection row of the first stage / ejection row of the
    // last).
    int endpoint_router(int endpoint) const;

    // Deterministic route between endpoints, as a sequence of channel
    // indices into channels().  Empty when src and dst share a router (or
    // are equal).  Throws std::out_of_range on bad endpoints.
    std::vector<std::size_t> route(int src_endpoint, int dst_endpoint) const;
    // The same route written into `path` (cleared first), so a caller
    // routing many pairs reuses one buffer.
    void route(int src_endpoint, int dst_endpoint, std::vector<std::size_t>& path) const;

private:
    TopologyGraph() = default;

    // Index of the channel src->dst (selecting among parallel channels with
    // `lane`); throws std::logic_error if absent (a routing bug).
    std::size_t channel_index(int src, int dst, int lane = 0) const;

    TopologyInfo info_;
    std::vector<Channel> channels_;
    // Dense channel lookup: per (src, dst) router pair, its parallel
    // channels' indices in insertion order.
    std::vector<std::vector<std::uint32_t>> lanes_;
};

// Uniform-random-traffic analysis of a topology graph.
struct TrafficAnalysis {
    double avg_hops = 0.0;            // mean inter-router channels traversed
    double max_channel_load = 0.0;    // expected flits/cycle on the hottest
                                      // channel at injection rate 1 flit/
                                      // cycle/endpoint
    double saturation_injection = 0.0;  // flits/cycle/endpoint at saturation
                                        // = 1 / max_channel_load
    std::vector<double> channel_load;   // per channel, at injection rate 1
};

// Route all N*(N-1) endpoint pairs and accumulate channel loads.
TrafficAnalysis analyze_uniform_traffic(const TopologyGraph& graph);

// Zero-load packet latency in cycles: per-hop router pipeline plus link
// traversal, plus serialization of `packet_bits` over `flit_width` wires.
double zero_load_latency_cycles(const TrafficAnalysis& traffic, int router_pipeline,
                                int packet_bits, int flit_width);

// Average latency at a finite injection rate (flits/cycle/endpoint):
// zero-load latency plus per-hop M/D/1 queueing delay at each channel's
// utilization.  Diverges (returns +infinity) at or beyond saturation.
// `injection` must be non-negative.
double latency_at_load_cycles(const TrafficAnalysis& traffic, int router_pipeline,
                              int packet_bits, int flit_width, double injection);

// Latency-vs-offered-load curve on `points` evenly spaced injection rates in
// (0, saturation); the standard NoC characterization plot.
struct LoadLatencyPoint {
    double injection = 0.0;  // flits/cycle/endpoint
    double latency_cycles = 0.0;
};
std::vector<LoadLatencyPoint> load_latency_curve(const TrafficAnalysis& traffic,
                                                 int router_pipeline, int packet_bits,
                                                 int flit_width, int points = 12);

}  // namespace nautilus::noc
