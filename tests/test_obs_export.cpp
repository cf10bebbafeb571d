// Exporter tests: Prometheus text exposition, histogram quantile
// estimation, and the Chrome trace-event (Perfetto) conversion.

#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/ga.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

using namespace nautilus::obs;

namespace {

// ---- name sanitization ------------------------------------------------------

TEST(ObsPrometheus, SanitizeMetricNameMapsToPrometheusCharset)
{
    EXPECT_EQ(sanitize_metric_name("eval.items"), "eval_items");
    EXPECT_EQ(sanitize_metric_name("ga.runs"), "ga_runs");
    EXPECT_EQ(sanitize_metric_name("already_fine_09"), "already_fine_09");
    EXPECT_EQ(sanitize_metric_name("with:colon"), "with:colon");
    EXPECT_EQ(sanitize_metric_name("spaces and-dashes"), "spaces_and_dashes");
    EXPECT_EQ(sanitize_metric_name("9leading"), "_9leading");
    EXPECT_EQ(sanitize_metric_name(""), "_");
}

// ---- full exposition --------------------------------------------------------

TEST(ObsPrometheus, GoldenExposition)
{
    MetricsRegistry reg;
    reg.counter("eval.items").add(7);
    reg.gauge("workers").set(4.0);
    Histogram& h = reg.histogram("wave.seconds", {0.1, 1.0});
    h.observe(0.05);
    h.observe(0.5);
    h.observe(5.0);

    // Doubles render at %.17g round-trip precision (shared with the trace
    // and /status surfaces via obs/format.hpp), so decimals with no exact
    // binary form carry their full digits.
    const std::string text = to_prometheus(reg.snapshot());
    const std::string expected =
        "# TYPE nautilus_eval_items_total counter\n"
        "nautilus_eval_items_total 7\n"
        "# TYPE nautilus_workers gauge\n"
        "nautilus_workers 4\n"
        "# TYPE nautilus_wave_seconds histogram\n"
        "nautilus_wave_seconds_bucket{le=\"0.10000000000000001\"} 1\n"
        "nautilus_wave_seconds_bucket{le=\"1\"} 2\n"
        "nautilus_wave_seconds_bucket{le=\"+Inf\"} 3\n"
        "nautilus_wave_seconds_sum 5.5499999999999998\n"
        "nautilus_wave_seconds_count 3\n";
    EXPECT_EQ(text, expected);
}

TEST(ObsPrometheus, CounterTotalSuffixIsNotDuplicated)
{
    MetricsRegistry reg;
    reg.counter("requests_total").add(3);
    const std::string text = to_prometheus(reg.snapshot());
    EXPECT_NE(text.find("nautilus_requests_total 3\n"), std::string::npos);
    EXPECT_EQ(text.find("requests_total_total"), std::string::npos);
}

TEST(ObsPrometheus, HistogramBucketsAreCumulativeAndEndAtInf)
{
    MetricsRegistry reg;
    Histogram& h = reg.histogram("lat", {1.0, 2.0, 4.0});
    for (const double v : {0.5, 1.5, 1.6, 3.0, 100.0}) h.observe(v);

    const std::string text = to_prometheus(reg.snapshot());
    // Cumulative: 1, 3, 4, then +Inf carries the overflow observation too.
    EXPECT_NE(text.find("nautilus_lat_bucket{le=\"1\"} 1\n"), std::string::npos);
    EXPECT_NE(text.find("nautilus_lat_bucket{le=\"2\"} 3\n"), std::string::npos);
    EXPECT_NE(text.find("nautilus_lat_bucket{le=\"4\"} 4\n"), std::string::npos);
    EXPECT_NE(text.find("nautilus_lat_bucket{le=\"+Inf\"} 5\n"), std::string::npos);
    EXPECT_NE(text.find("nautilus_lat_count 5\n"), std::string::npos);
}

TEST(ObsPrometheus, CustomPrefix)
{
    MetricsRegistry reg;
    reg.counter("x").add();
    PrometheusOptions options;
    options.prefix = "acme_";
    const std::string text = to_prometheus(reg.snapshot(), options);
    EXPECT_NE(text.find("acme_x_total 1\n"), std::string::npos);
}

TEST(ObsPrometheus, ProgressExpositionCarriesRunState)
{
    ProgressSnapshot snap;
    snap.engine = "ga";
    snap.running = true;
    snap.runs_started = 1;
    snap.units_done = 12;
    snap.units_total = 80;
    snap.have_best = true;
    snap.best = 123.5;
    snap.distinct_evals = 340;
    snap.eval_calls = 800;
    snap.cache_hits = 460;

    std::string out;
    append_progress_exposition(out, snap);
    EXPECT_NE(out.find("# TYPE nautilus_progress_running gauge\n"), std::string::npos);
    EXPECT_NE(out.find("nautilus_progress_running 1\n"), std::string::npos);
    EXPECT_NE(out.find("nautilus_progress_generation 12\n"), std::string::npos);
    EXPECT_NE(out.find("nautilus_progress_generations_total 80\n"), std::string::npos);
    EXPECT_NE(out.find("nautilus_progress_best 123.5\n"), std::string::npos);
    EXPECT_NE(out.find("nautilus_progress_distinct_evals 340\n"), std::string::npos);
    EXPECT_NE(out.find("nautilus_progress_cache_hit_rate 0.57499999999999996\n"),
              std::string::npos);

    // Without a best value the series is absent rather than misleadingly 0.
    std::string no_best;
    snap.have_best = false;
    append_progress_exposition(no_best, snap);
    EXPECT_EQ(no_best.find("progress_best"), std::string::npos);
}

// ---- Histogram::quantile ----------------------------------------------------

TEST(ObsQuantile, InterpolatesWithinBuckets)
{
    Histogram h{{10.0, 20.0, 40.0}};
    h.observe(5.0);    // bucket le=10
    h.observe(15.0);   // bucket le=20
    h.observe(30.0);   // bucket le=40
    h.observe(100.0);  // overflow

    // rank q*4: the first bucket spans [0, 10].
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 10.0);  // exactly the first bound
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 20.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.125), 5.0);  // halfway into [0, 10]
}

TEST(ObsQuantile, OverflowRanksClampToHighestFiniteBound)
{
    Histogram h{{10.0, 20.0, 40.0}};
    h.observe(5.0);
    h.observe(100.0);
    h.observe(200.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.9), 40.0);
}

TEST(ObsQuantile, EmptyBucketsSkipToTheOccupiedRegion)
{
    Histogram h{{10.0, 20.0}};
    h.observe(15.0);
    h.observe(15.0);
    // q=0 lands on the empty first bucket's boundary.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
}

TEST(ObsQuantile, EmptyHistogramYieldsNaN)
{
    Histogram h{{1.0, 2.0}};
    EXPECT_TRUE(std::isnan(h.quantile(0.5)));
}

TEST(ObsQuantile, RejectsOutOfRangeQ)
{
    Histogram h{{1.0}};
    h.observe(0.5);
    EXPECT_THROW(h.quantile(-0.1), std::invalid_argument);
    EXPECT_THROW(h.quantile(1.1), std::invalid_argument);
    EXPECT_THROW(h.quantile(std::nan("")), std::invalid_argument);
}

// ---- Chrome trace export ----------------------------------------------------

TEST(ObsChrome, SpansBecomeCompleteEventsWithDerivedStart)
{
    TraceEvent span{"span"};
    span.t = 0.002;  // span *end* in trace time
    span.add("name", "ga.run").add("seconds", FieldValue{0.001}).add("depth", 0);

    const std::string json = chrome_trace_json({span});
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.substr(json.size() - 2), "]\n");
    EXPECT_NE(json.find("\"name\":\"ga.run\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // end 2000us - dur 1000us => ts 1000us.
    EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":1000.000"), std::string::npos);
}

TEST(ObsChrome, TimestampsAreClampedAndSorted)
{
    // A span whose duration exceeds its end time would go negative; it must
    // clamp to ts=0.  A later instant must sort after it.
    TraceEvent early{"span"};
    early.t = 0.0005;
    early.add("name", "warmup").add("seconds", FieldValue{0.002});
    TraceEvent late{"run_end"};
    late.t = 0.004;
    late.add("engine", "ga");

    const std::string json = chrome_trace_json({late, early});
    const std::size_t warmup = json.find("warmup");
    const std::size_t run_end = json.find("run_end");
    ASSERT_NE(warmup, std::string::npos);
    ASSERT_NE(run_end, std::string::npos);
    EXPECT_LT(warmup, run_end);  // sorted by ts despite input order
    EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
    EXPECT_EQ(json.find("\"ts\":-"), std::string::npos);
}

// The same ordering on a recorded GA run: every exported event starts at
// ts >= 0, starts never go backwards, and no duration is negative.
TEST(ObsChrome, RecordedGaRunHasOrderedNonNegativeTimes)
{
    using namespace nautilus;
    ParameterSpace space;
    for (int i = 0; i < 4; ++i) space.add("p" + std::to_string(i), ParamDomain::int_range(0, 7));
    const auto sum = [](const Genome& g) {
        double v = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i) v += g.gene(i);
        return Evaluation{true, v};
    };
    auto sink = std::make_shared<MemorySink>();
    GaConfig cfg;
    cfg.generations = 8;
    cfg.eval_workers = 2;
    cfg.obs = Instrumentation::with_sink(sink);
    (void)GaEngine{space, cfg, Direction::maximize, sum, HintSet::none(space)}.run();

    std::istringstream json{chrome_trace_json(sink->events())};
    std::size_t events = 0;
    double last = 0.0;
    for (std::string line; std::getline(json, line);) {
        const std::string head = line.substr(0, line.find(",\"args\":"));
        const std::size_t ts = head.find(",\"ts\":");
        ASSERT_NE(ts, std::string::npos) << line;
        const double start = std::stod(head.substr(ts + 6));
        EXPECT_GE(start, last) << line;
        last = start;
        if (const std::size_t dur = head.find(",\"dur\":"); dur != std::string::npos)
            EXPECT_GE(std::stod(head.substr(dur + 7)), 0.0) << line;
        ++events;
    }
    EXPECT_GT(events, sink->size());  // generations add counter tracks
}

TEST(ObsChrome, GenerationsBecomeCounterTracks)
{
    TraceEvent gen{"generation"};
    gen.t = 0.01;
    gen.add("gen", std::size_t{3})
        .add("best_so_far", FieldValue{42.5})
        .add("diversity", FieldValue{0.8})
        .add("distinct_total", std::size_t{120});

    const std::string json = chrome_trace_json({gen});
    EXPECT_NE(json.find("\"name\":\"best_so_far\",\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"diversity\",\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"distinct_evals\",\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"value\":42.5"), std::string::npos);
    // The generation itself is still visible as an instant.
    EXPECT_NE(json.find("\"name\":\"generation\",\"ph\":\"i\""), std::string::npos);
}

TEST(ObsChrome, EvalWavesLandOnTheirOwnLane)
{
    TraceEvent wave{"eval_wave"};
    wave.t = 0.02;
    wave.add("size", std::size_t{10})
        .add("fresh", std::size_t{7})
        .add("seconds", FieldValue{0.004});

    const std::string json = chrome_trace_json({wave});
    EXPECT_NE(json.find("\"name\":\"eval_wave\""), std::string::npos);
    EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
    EXPECT_NE(json.find("\"fresh\":7"), std::string::npos);
}

TEST(ObsChrome, StringArgsAreEscaped)
{
    TraceEvent ev{"checkpoint"};
    ev.t = 0.0;
    ev.add("path", "dir\\file \"x\".ckpt");
    const std::string json = chrome_trace_json({ev});
    EXPECT_NE(json.find("dir\\\\file \\\"x\\\".ckpt"), std::string::npos);
}

TEST(ObsChrome, EmptyTraceIsAnEmptyArray)
{
    EXPECT_EQ(chrome_trace_json({}), "[]\n");
}

}  // namespace
