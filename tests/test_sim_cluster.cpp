#include "sim_cluster.hpp"

#include <gtest/gtest.h>

namespace nautilus::bench {
namespace {

TEST(SynthesisMinutes, GrowsWithDesignSize)
{
    const double small = synthesis_minutes(500.0, 1);
    const double big = synthesis_minutes(25000.0, 1);
    EXPECT_GT(big, small);
    // "Minutes to hours": small designs minutes-scale, large designs
    // hour-plus.
    EXPECT_GT(small, 1.0);
    EXPECT_LT(small, 30.0);
    EXPECT_GT(big, 60.0);
}

TEST(SynthesisMinutes, DeterministicPerKey)
{
    EXPECT_DOUBLE_EQ(synthesis_minutes(1000.0, 42), synthesis_minutes(1000.0, 42));
    EXPECT_NE(synthesis_minutes(1000.0, 42), synthesis_minutes(1000.0, 43));
}

TEST(SynthesisMinutes, RejectsNegativeArea)
{
    EXPECT_THROW(synthesis_minutes(-1.0, 0), std::invalid_argument);
}

TEST(SynthesisCluster, SingleWorkerSerializes)
{
    SynthesisCluster cluster{1};
    const std::vector<double> jobs{10.0, 20.0, 30.0};
    EXPECT_DOUBLE_EQ(cluster.run_batch(jobs), 60.0);
    EXPECT_DOUBLE_EQ(cluster.elapsed_minutes(), 60.0);
    EXPECT_DOUBLE_EQ(cluster.busy_minutes(), 60.0);
    EXPECT_DOUBLE_EQ(cluster.utilization(), 1.0);
}

TEST(SynthesisCluster, ManyWorkersParallelize)
{
    SynthesisCluster cluster{3};
    const std::vector<double> jobs{10.0, 20.0, 30.0};
    EXPECT_DOUBLE_EQ(cluster.run_batch(jobs), 30.0);  // each job on its own worker
    EXPECT_DOUBLE_EQ(cluster.utilization(), 60.0 / 90.0);
}

TEST(SynthesisCluster, LptBalancesLoad)
{
    SynthesisCluster cluster{2};
    // LPT: 30 -> w0, 20 -> w1, 10 -> w1: loads {30, 30}.
    const std::vector<double> jobs{10.0, 20.0, 30.0};
    EXPECT_DOUBLE_EQ(cluster.run_batch(jobs), 30.0);
}

TEST(SynthesisCluster, MoreWorkersNeverSlower)
{
    const std::vector<double> jobs{7, 3, 9, 4, 6, 2, 8, 5, 1, 10};
    double prev = 1e18;
    for (std::size_t w : {1u, 2u, 4u, 8u, 16u}) {
        SynthesisCluster cluster{w};
        const double makespan = cluster.run_batch(jobs);
        EXPECT_LE(makespan, prev);
        prev = makespan;
    }
}

TEST(SynthesisCluster, ParallelismCappedByBatchSize)
{
    // The paper's point: population size caps evaluation parallelism.  A
    // 10-job batch gains nothing beyond 10 workers.
    const std::vector<double> jobs(10, 5.0);
    SynthesisCluster ten{10};
    SynthesisCluster hundred{100};
    EXPECT_DOUBLE_EQ(ten.run_batch(jobs), hundred.run_batch(jobs));
}

TEST(SynthesisCluster, EmptyBatchIsFree)
{
    SynthesisCluster cluster{4};
    EXPECT_DOUBLE_EQ(cluster.run_batch({}), 0.0);
    EXPECT_DOUBLE_EQ(cluster.elapsed_minutes(), 0.0);
    EXPECT_DOUBLE_EQ(cluster.utilization(), 0.0);
}

TEST(SynthesisCluster, Validation)
{
    EXPECT_THROW(SynthesisCluster{0}, std::invalid_argument);
    SynthesisCluster cluster{2};
    const std::vector<double> bad{1.0, -2.0};
    EXPECT_THROW(cluster.run_batch(bad), std::invalid_argument);
}

TEST(SynthesisCluster, ResetClearsClock)
{
    SynthesisCluster cluster{2};
    const std::vector<double> jobs{5.0, 5.0};
    cluster.run_batch(jobs);
    cluster.reset();
    EXPECT_DOUBLE_EQ(cluster.elapsed_minutes(), 0.0);
    EXPECT_DOUBLE_EQ(cluster.busy_minutes(), 0.0);
}

TEST(ReplaySchedule, CumulativeClock)
{
    SynthesisCluster cluster{2};
    const std::vector<std::vector<double>> batches{{10.0, 10.0}, {20.0}, {}};
    const auto clock = replay_schedule(cluster, batches);
    ASSERT_EQ(clock.size(), 3u);
    EXPECT_DOUBLE_EQ(clock[0], 10.0);
    EXPECT_DOUBLE_EQ(clock[1], 30.0);
    EXPECT_DOUBLE_EQ(clock[2], 30.0);
}

}  // namespace
}  // namespace nautilus::bench
