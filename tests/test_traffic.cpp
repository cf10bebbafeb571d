#include "noc/traffic.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

namespace nautilus::noc {
namespace {

TopologyGraph graph_of(TopologyKind kind, int endpoints = 64)
{
    return TopologyGraph::build(make_topology(kind, endpoints));
}

// Every route must be a contiguous walk over existing channels from the
// source's router to the destination's router.
void check_route_validity(const TopologyGraph& g, int src, int dst)
{
    const auto path = g.route(src, dst);
    int at = g.endpoint_router(src);
    for (std::size_t link : path) {
        ASSERT_LT(link, g.channels().size());
        ASSERT_EQ(g.channels()[link].src, at);
        at = g.channels()[link].dst;
    }
    // Butterfly ejection happens at the last stage's row for dst.
    EXPECT_EQ(at, g.info().kind == TopologyKind::butterfly
                      ? (g.num_routers() - g.num_endpoints() / 4) + g.endpoint_router(dst)
                      : g.endpoint_router(dst))
        << topology_name(g.info().kind) << " " << src << "->" << dst;
}

class AllTopologies : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(AllTopologies, AllRoutesAreValidWalks)
{
    const TopologyGraph g = graph_of(GetParam());
    for (int s = 0; s < g.num_endpoints(); s += 3)
        for (int d = 0; d < g.num_endpoints(); d += 5)
            if (s != d) check_route_validity(g, s, d);
}

TEST_P(AllTopologies, ChannelEndpointsAreInRange)
{
    const TopologyGraph g = graph_of(GetParam());
    for (const Channel& c : g.channels()) {
        EXPECT_GE(c.src, 0);
        EXPECT_LT(c.src, g.num_routers());
        EXPECT_GE(c.dst, 0);
        EXPECT_LT(c.dst, g.num_routers());
        EXPECT_NE(c.src, c.dst);
    }
}

TEST_P(AllTopologies, UniformTrafficAnalysisIsSane)
{
    const TopologyGraph g = graph_of(GetParam());
    const TrafficAnalysis t = analyze_uniform_traffic(g);
    EXPECT_GT(t.avg_hops, 0.0);
    EXPECT_GT(t.max_channel_load, 0.0);
    EXPECT_GT(t.saturation_injection, 0.0);
    // Slightly above 1 is possible when co-located endpoints exchange
    // traffic without entering the network (concentration, shared leaves).
    EXPECT_LE(t.saturation_injection, 1.3);
    EXPECT_NEAR(t.saturation_injection * t.max_channel_load, 1.0, 1e-9);
    EXPECT_EQ(t.channel_load.size(), g.channels().size());
}

INSTANTIATE_TEST_SUITE_P(Families, AllTopologies,
                         ::testing::Values(TopologyKind::ring, TopologyKind::double_ring,
                                           TopologyKind::conc_ring,
                                           TopologyKind::conc_double_ring,
                                           TopologyKind::mesh, TopologyKind::torus,
                                           TopologyKind::fat_tree,
                                           TopologyKind::butterfly));

TEST(TrafficRing, HopCountMatchesTheory)
{
    // Mean shortest ring distance for even N is N/4 (uniform over other
    // endpoints: N^2/4 / (N-1)).
    const TopologyGraph g = graph_of(TopologyKind::ring);
    const TrafficAnalysis t = analyze_uniform_traffic(g);
    EXPECT_NEAR(t.avg_hops, 64.0 * 64.0 / 4.0 / 63.0, 1e-9);
}

TEST(TrafficRing, SaturationMatchesBisectionBound)
{
    // Uniform ring capacity: 8/N flits/cycle/node.
    const TopologyGraph g = graph_of(TopologyKind::ring);
    const TrafficAnalysis t = analyze_uniform_traffic(g);
    EXPECT_NEAR(t.saturation_injection, 8.0 / 64.0, 0.01);
}

TEST(TrafficDoubleRing, TwoLanesDoubleTheCapacity)
{
    const TrafficAnalysis one = analyze_uniform_traffic(graph_of(TopologyKind::ring));
    const TrafficAnalysis two =
        analyze_uniform_traffic(graph_of(TopologyKind::double_ring));
    EXPECT_NEAR(two.saturation_injection, 2.0 * one.saturation_injection, 0.02);
    EXPECT_NEAR(two.avg_hops, one.avg_hops, 1e-9);  // same distances
}

TEST(TrafficConcentration, FewerRoutersShorterRoutes)
{
    const TrafficAnalysis plain = analyze_uniform_traffic(graph_of(TopologyKind::ring));
    const TrafficAnalysis conc =
        analyze_uniform_traffic(graph_of(TopologyKind::conc_ring));
    EXPECT_LT(conc.avg_hops, plain.avg_hops / 2.0);
}

TEST(TrafficMesh, HopCountMatchesTheory)
{
    // 8x8 mesh with XY routing: mean |dx| + |dy| over distinct endpoint
    // pairs = 2 * (s/3 - 1/(3s)) * N/(N-1).
    const TopologyGraph g = graph_of(TopologyKind::mesh);
    const TrafficAnalysis t = analyze_uniform_traffic(g);
    const double per_dim = (8.0 / 3.0 - 1.0 / 24.0);
    EXPECT_NEAR(t.avg_hops, 2.0 * per_dim * 64.0 / 63.0, 0.01);
}

TEST(TrafficTorus, WraparoundBeatsMesh)
{
    const TrafficAnalysis mesh = analyze_uniform_traffic(graph_of(TopologyKind::mesh));
    const TrafficAnalysis torus = analyze_uniform_traffic(graph_of(TopologyKind::torus));
    EXPECT_LT(torus.avg_hops, mesh.avg_hops);
    EXPECT_GT(torus.saturation_injection, mesh.saturation_injection * 1.5);
}

TEST(TrafficFatTree, FullBisectionSaturatesNearUnity)
{
    // A 4-ary 3-tree with destination-spread up-routing sustains close to
    // one flit/cycle/node under uniform traffic.
    const TrafficAnalysis t = analyze_uniform_traffic(graph_of(TopologyKind::fat_tree));
    EXPECT_GT(t.saturation_injection, 0.9);
}

TEST(TrafficButterfly, AllRoutesTraverseEveryStage)
{
    const TopologyGraph g = graph_of(TopologyKind::butterfly);
    for (int s = 0; s < 64; s += 7)
        for (int d = 0; d < 64; d += 11)
            if (s != d) { EXPECT_EQ(g.route(s, d).size(), 2u); }  // 3 stages, 2 gaps
}

TEST(TrafficButterfly, UniformLoadAcrossChannels)
{
    // Destination-digit routing on a butterfly balances uniform traffic up
    // to the s != d self-pair exclusion (a ~7% ripple at 64 endpoints).
    const TrafficAnalysis t = analyze_uniform_traffic(graph_of(TopologyKind::butterfly));
    double lo = 1e18;
    double hi = 0.0;
    for (double load : t.channel_load) {
        lo = std::min(lo, load);
        hi = std::max(hi, load);
    }
    EXPECT_NEAR(lo, hi, hi * 0.10);
}

TEST(TrafficOrdering, SaturationFollowsTheFamilyHierarchy)
{
    const double ring =
        analyze_uniform_traffic(graph_of(TopologyKind::ring)).saturation_injection;
    const double mesh =
        analyze_uniform_traffic(graph_of(TopologyKind::mesh)).saturation_injection;
    const double torus =
        analyze_uniform_traffic(graph_of(TopologyKind::torus)).saturation_injection;
    const double ft =
        analyze_uniform_traffic(graph_of(TopologyKind::fat_tree)).saturation_injection;
    EXPECT_LT(ring, mesh);
    EXPECT_LT(mesh, torus);
    EXPECT_LT(torus, ft);
}

TEST(TrafficGraph, EndpointValidation)
{
    const TopologyGraph g = graph_of(TopologyKind::mesh);
    EXPECT_THROW(g.endpoint_router(-1), std::out_of_range);
    EXPECT_THROW(g.endpoint_router(64), std::out_of_range);
    EXPECT_THROW(g.route(0, 64), std::out_of_range);
}

TEST(TrafficGraph, SameRouterPairsHaveEmptyRoutes)
{
    const TopologyGraph g = graph_of(TopologyKind::conc_ring);
    // Endpoints 0..3 share router 0.
    EXPECT_TRUE(g.route(0, 1).empty());
    EXPECT_TRUE(g.route(2, 3).empty());
}

TEST(ZeroLoadLatency, CombinesHopsPipelineAndSerialization)
{
    TrafficAnalysis t;
    t.avg_hops = 4.0;
    // (4+1) hops * (2+1) cycles + ceil(512/64) serialization.
    EXPECT_DOUBLE_EQ(zero_load_latency_cycles(t, 2, 512, 64), 5.0 * 3.0 + 8.0);
    EXPECT_THROW(zero_load_latency_cycles(t, 0, 512, 64), std::invalid_argument);
    EXPECT_THROW(zero_load_latency_cycles(t, 2, 0, 64), std::invalid_argument);
}

TEST(ZeroLoadLatency, WiderFlitsCutSerialization)
{
    TrafficAnalysis t;
    t.avg_hops = 3.0;
    EXPECT_LT(zero_load_latency_cycles(t, 2, 512, 256),
              zero_load_latency_cycles(t, 2, 512, 32));
}

TEST(TrafficScaling, SmallerNetworksAnalyzeToo)
{
    for (auto kind : {TopologyKind::ring, TopologyKind::mesh, TopologyKind::fat_tree}) {
        const TopologyGraph g = graph_of(kind, 16);
        const TrafficAnalysis t = analyze_uniform_traffic(g);
        EXPECT_GT(t.saturation_injection, 0.0) << topology_name(kind);
    }
}

TEST(LoadLatency, ZeroInjectionEqualsZeroLoad)
{
    const TrafficAnalysis t = analyze_uniform_traffic(graph_of(TopologyKind::mesh));
    EXPECT_DOUBLE_EQ(latency_at_load_cycles(t, 2, 512, 64, 0.0),
                     zero_load_latency_cycles(t, 2, 512, 64));
}

TEST(LoadLatency, MonotoneInInjectionRate)
{
    const TrafficAnalysis t = analyze_uniform_traffic(graph_of(TopologyKind::mesh));
    double prev = 0.0;
    for (double frac : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        const double latency = latency_at_load_cycles(t, 2, 512, 64,
                                                      frac * t.saturation_injection);
        EXPECT_GT(latency, prev);
        prev = latency;
    }
}

TEST(LoadLatency, DivergesAtSaturation)
{
    const TrafficAnalysis t = analyze_uniform_traffic(graph_of(TopologyKind::ring));
    EXPECT_TRUE(std::isinf(
        latency_at_load_cycles(t, 2, 512, 64, t.saturation_injection)));
    EXPECT_TRUE(std::isinf(
        latency_at_load_cycles(t, 2, 512, 64, t.saturation_injection * 2.0)));
    EXPECT_THROW(latency_at_load_cycles(t, 2, 512, 64, -0.1), std::invalid_argument);
}

TEST(LoadLatency, CurveSpansUpToNearSaturation)
{
    const TrafficAnalysis t = analyze_uniform_traffic(graph_of(TopologyKind::torus));
    const auto curve = load_latency_curve(t, 2, 512, 64, 10);
    ASSERT_EQ(curve.size(), 10u);
    EXPECT_DOUBLE_EQ(curve.front().injection, 0.0);
    EXPECT_NEAR(curve.back().injection, t.saturation_injection * 0.98, 1e-9);
    for (const auto& p : curve) EXPECT_TRUE(std::isfinite(p.latency_cycles));
    EXPECT_THROW(load_latency_curve(t, 2, 512, 64, 1), std::invalid_argument);
}

TEST(LoadLatency, FatTreeSustainsLowLatencyAtRingSaturation)
{
    // At the ring's saturation point the fat tree is barely loaded.
    const TrafficAnalysis ring = analyze_uniform_traffic(graph_of(TopologyKind::ring));
    const TrafficAnalysis ft = analyze_uniform_traffic(graph_of(TopologyKind::fat_tree));
    const double rate = ring.saturation_injection * 0.95;
    EXPECT_LT(latency_at_load_cycles(ft, 2, 512, 64, rate),
              latency_at_load_cycles(ring, 2, 512, 64, rate));
}

// Every family's uniform-traffic analysis at 64 endpoints, pinned bit for
// bit: the channel count, an FNV-1a digest of the per-channel loads' IEEE-754
// bits, and the bits of the three scalars.  A faster router or channel
// lookup must reproduce each of them exactly.
TEST(TrafficGolden, SixtyFourEndpointAnalysesAreBitExact)
{
    struct Golden {
        TopologyKind kind;
        std::size_t channels;
        std::uint64_t load_digest;
        std::uint64_t avg_hops;
        std::uint64_t max_channel_load;
        std::uint64_t saturation_injection;
    };
    const Golden goldens[] = {
        {TopologyKind::ring, 128, 0x3f278cdfd0bca325ull,
         0x4030410410410410ull, 0x4020c30c30c30c31ull, 0x3fbe8ba2e8ba2e8bull},
        {TopologyKind::double_ring, 256, 0xc655ec0d6a5c3125ull,
         0x4030410410410410ull, 0x4011451451451451ull, 0x3fcda5a5a5a5a5a6ull},
        {TopologyKind::conc_ring, 32, 0x3952c59dc9971aa5ull,
         0x4010410410410410ull, 0x4022492492492492ull, 0x3fbc000000000000ull},
        {TopologyKind::conc_double_ring, 64, 0x90002e4d13077c25ull,
         0x4010410410410410ull, 0x4012492492492492ull, 0x3fcc000000000000ull},
        {TopologyKind::mesh, 224, 0x0d249920b3b71f85ull,
         0x4015555555555555ull, 0x4000410410410410ull, 0x3fdf800000000000ull},
        {TopologyKind::torus, 256, 0xf218a136a5eb3625ull,
         0x4010410410410410ull, 0x3ff4514514514514ull, 0x3fe9333333333334ull},
        {TopologyKind::fat_tree, 256, 0x50ba9d7a3c52e825ull,
         0x400b6db6db6db6dbull, 0x3fee79e79e79e79eull, 0x3ff0cccccccccccdull},
        {TopologyKind::butterfly, 128, 0xf70adf42af8f1ea5ull,
         0x4000000000000000ull, 0x3ff0410410410410ull, 0x3fef800000000000ull},
    };
    for (const Golden& g : goldens) {
        const TrafficAnalysis t = analyze_uniform_traffic(graph_of(g.kind));
        std::uint64_t digest = 0xcbf29ce484222325ull;
        for (const double load : t.channel_load) {
            const auto bits = std::bit_cast<std::uint64_t>(load);
            for (int i = 0; i < 8; ++i) {
                digest ^= static_cast<std::uint8_t>(bits >> (8 * i));
                digest *= 0x100000001b3ull;
            }
        }
        SCOPED_TRACE(topology_name(g.kind));
        EXPECT_EQ(t.channel_load.size(), g.channels);
        EXPECT_EQ(digest, g.load_digest);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(t.avg_hops), g.avg_hops);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(t.max_channel_load), g.max_channel_load);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(t.saturation_injection),
                  g.saturation_injection);
    }
}

}  // namespace
}  // namespace nautilus::noc

