// Observability subsystem: metrics registry thread safety, trace event
// serialization round-trips, scoped-timer nesting, and the accounting
// contract between eval_wave events and the engines' RunResult numbers.

#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ga.hpp"
#include "obs/trace_runs.hpp"

namespace nautilus {
namespace {

using obs::FieldValue;
using obs::MemorySink;
using obs::MetricsRegistry;
using obs::TraceEvent;
using obs::Tracer;

// ---- Metrics registry ------------------------------------------------------

TEST(ObsMetrics, CounterGaugeHistogramBasics)
{
    MetricsRegistry reg;
    obs::Counter& c = reg.counter("items");
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);

    reg.gauge("workers").set(4.0);
    EXPECT_DOUBLE_EQ(reg.gauge("workers").value(), 4.0);

    obs::Histogram& h = reg.histogram("lat", {1.0, 10.0});
    h.observe(0.5);
    h.observe(5.0);
    h.observe(100.0);  // overflow bucket
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 105.5);
    const auto counts = h.counts();
    ASSERT_EQ(counts.size(), 3u);
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 1u);
}

TEST(ObsMetrics, CreateOrGetReturnsSameInstrument)
{
    MetricsRegistry reg;
    obs::Counter& a = reg.counter("x");
    obs::Counter& b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
}

TEST(ObsMetrics, KindMismatchThrows)
{
    MetricsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
    EXPECT_THROW(reg.histogram("x", {1.0}), std::invalid_argument);
    reg.histogram("h", {1.0, 2.0});
    EXPECT_NO_THROW(reg.histogram("h", {1.0, 2.0}));
    EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), std::invalid_argument);
}

TEST(ObsMetrics, SnapshotAndTextDump)
{
    MetricsRegistry reg;
    reg.counter("b.count").add(7);
    reg.gauge("a.gauge").set(1.5);
    reg.histogram("c.hist", {1.0}).observe(0.5);

    const obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].first, "b.count");
    EXPECT_EQ(snap.counters[0].second, 7u);
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(snap.gauges[0].second, 1.5);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].count, 1u);

    std::ostringstream out;
    reg.write_text(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("b.count"), std::string::npos);
    EXPECT_NE(text.find("a.gauge"), std::string::npos);
    EXPECT_NE(text.find("c.hist"), std::string::npos);
}

// Registry create-or-get and instrument updates from many threads must be
// race-free (run under TSan in CI) and lose no increments.
TEST(ObsMetricsConcurrency, ConcurrentCreateAndUpdateIsExact)
{
    MetricsRegistry reg;
    constexpr int kThreads = 8;
    constexpr int kIters = 2000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            for (int i = 0; i < kIters; ++i) {
                reg.counter("shared.counter").add();
                reg.histogram("shared.hist", {0.5, 1.0}).observe(0.25);
                reg.gauge("shared.gauge").set(static_cast<double>(i));
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(reg.counter("shared.counter").value(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(reg.histogram("shared.hist", {0.5, 1.0}).count(),
              static_cast<std::uint64_t>(kThreads) * kIters);
}

// ---- Trace events ----------------------------------------------------------

TEST(ObsTrace, EventSerializationRoundTrips)
{
    TraceEvent ev{"unit_test"};
    ev.t = 1.25;
    ev.add("flag", FieldValue{true})
        .add("neg", FieldValue{std::int64_t{-42}})
        .add("big", FieldValue{std::uint64_t{18446744073709551615ull}})
        .add("ratio", FieldValue{0.125})
        .add("whole", FieldValue{3.0})
        .add("name", "hello \"world\"\n\tend")
        .add("vec", FieldValue{std::vector<double>{1.0, -2.5, 0.0}});

    const std::string line = obs::to_jsonl(ev);
    const auto back = obs::parse_jsonl_line(line);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->type, "unit_test");
    EXPECT_DOUBLE_EQ(back->t, 1.25);
    ASSERT_EQ(back->fields.size(), ev.fields.size());
    EXPECT_EQ(std::get<bool>(*back->find("flag")), true);
    EXPECT_EQ(std::get<std::int64_t>(*back->find("neg")), -42);
    EXPECT_EQ(std::get<std::uint64_t>(*back->find("big")), 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(std::get<double>(*back->find("ratio")), 0.125);
    // Whole-valued doubles must come back as doubles, not integers.
    EXPECT_DOUBLE_EQ(std::get<double>(*back->find("whole")), 3.0);
    EXPECT_EQ(std::get<std::string>(*back->find("name")), "hello \"world\"\n\tend");
    const auto& vec = std::get<std::vector<double>>(*back->find("vec"));
    EXPECT_EQ(vec, (std::vector<double>{1.0, -2.5, 0.0}));
}

TEST(ObsTrace, NonFiniteDoublesRoundTripAsNaN)
{
    TraceEvent ev{"nan_test"};
    ev.add("nan", FieldValue{std::nan("")})
        .add("inf", FieldValue{std::numeric_limits<double>::infinity()})
        .add("vec", FieldValue{std::vector<double>{1.0, std::nan("")}});
    const auto back = obs::parse_jsonl_line(obs::to_jsonl(ev));
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(std::isnan(std::get<double>(*back->find("nan"))));
    EXPECT_TRUE(std::isnan(std::get<double>(*back->find("inf"))));
    const auto& vec = std::get<std::vector<double>>(*back->find("vec"));
    ASSERT_EQ(vec.size(), 2u);
    EXPECT_DOUBLE_EQ(vec[0], 1.0);
    EXPECT_TRUE(std::isnan(vec[1]));
}

TEST(ObsTrace, ParserRejectsMalformedLines)
{
    EXPECT_FALSE(obs::parse_jsonl_line("").has_value());
    EXPECT_FALSE(obs::parse_jsonl_line("not json").has_value());
    EXPECT_FALSE(obs::parse_jsonl_line("{\"t\":0.0}").has_value());  // no type
    EXPECT_FALSE(obs::parse_jsonl_line("{\"type\":\"x\"").has_value());
    EXPECT_FALSE(obs::parse_jsonl_line("{\"type\":\"x\"} trailing").has_value());
    EXPECT_FALSE(obs::parse_jsonl_line("{\"type\":42}").has_value());
    EXPECT_TRUE(obs::parse_jsonl_line("{\"type\":\"x\"}").has_value());
}

TEST(ObsTrace, TypedLookupsHandleMissingAndMismatched)
{
    TraceEvent ev{"lookup"};
    ev.add("n", std::size_t{7}).add("s", "str");
    EXPECT_EQ(ev.unsigned_int("n").value(), 7u);
    EXPECT_DOUBLE_EQ(ev.number("n").value(), 7.0);
    EXPECT_FALSE(ev.number("s").has_value());
    EXPECT_FALSE(ev.unsigned_int("missing").has_value());
    EXPECT_EQ(ev.string("s").value(), "str");
    EXPECT_FALSE(ev.string("n").has_value());
}

TEST(ObsTrace, DisabledTracerIsANoOp)
{
    Tracer off;
    EXPECT_FALSE(off.enabled());
    off.emit(TraceEvent{"ignored"});  // must not crash
    obs::Instrumentation inst;
    EXPECT_FALSE(inst.tracing());
    EXPECT_EQ(inst.registry(), nullptr);
}

TEST(ObsTrace, MemorySinkCollectsAndFilters)
{
    auto sink = std::make_shared<MemorySink>();
    Tracer tracer{sink};
    ASSERT_TRUE(tracer.enabled());
    tracer.emit(TraceEvent{"a"});
    tracer.emit(TraceEvent{"b"});
    tracer.emit(TraceEvent{"a"});
    EXPECT_EQ(sink->size(), 3u);
    EXPECT_EQ(sink->events_of("a").size(), 2u);
    EXPECT_EQ(sink->events_of("b").size(), 1u);
    EXPECT_EQ(sink->events_of("c").size(), 0u);
    // Timestamps are monotone non-decreasing in emission order.
    const auto events = sink->events();
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].t, events[i - 1].t);
}

TEST(ObsTrace, JsonlFileSinkWritesParseableLines)
{
    const std::string path = testing::TempDir() + "obs_trace_test.jsonl";
    {
        auto sink = std::make_shared<obs::JsonlFileSink>(path);
        Tracer tracer{sink};
        TraceEvent ev{"file_test"};
        ev.add("k", std::size_t{1});
        tracer.emit(std::move(ev));
        tracer.emit(TraceEvent{"file_test"});
    }  // dtor flushes
    std::ifstream in{path};
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t parsed = 0;
    while (std::getline(in, line)) {
        const auto ev = obs::parse_jsonl_line(line);
        ASSERT_TRUE(ev.has_value()) << line;
        EXPECT_EQ(ev->type, "file_test");
        ++parsed;
    }
    EXPECT_EQ(parsed, 2u);
    std::remove(path.c_str());
}

TEST(ObsTrace, ScopedTimerReportsNesting)
{
    auto sink = std::make_shared<MemorySink>();
    Tracer tracer{sink};
    {
        obs::ScopedTimer outer{tracer, "outer"};
        EXPECT_EQ(outer.depth(), 1);
        {
            obs::ScopedTimer inner{tracer, "inner"};
            EXPECT_EQ(inner.depth(), 2);
        }
        obs::ScopedTimer sibling{tracer, "sibling"};
        EXPECT_EQ(sibling.depth(), 2);
    }
    const auto spans = sink->events_of("span");
    ASSERT_EQ(spans.size(), 3u);
    // Inner scopes close first.
    EXPECT_EQ(spans[0].string("name").value(), "inner");
    EXPECT_EQ(spans[1].string("name").value(), "sibling");
    EXPECT_EQ(spans[2].string("name").value(), "outer");
    EXPECT_EQ(spans[2].number("depth").value(), 1.0);
    EXPECT_EQ(spans[0].number("depth").value(), 2.0);
    for (const auto& s : spans) EXPECT_GE(s.number("seconds").value(), 0.0);

    // A disabled tracer's timer neither emits nor tracks depth.
    Tracer off;
    obs::ScopedTimer silent{off, "silent"};
    EXPECT_EQ(silent.depth(), 0);
    EXPECT_EQ(sink->events_of("span").size(), 3u);
}

// ---- Engine integration ----------------------------------------------------

ParameterSpace toy_space()
{
    ParameterSpace space;
    for (int i = 0; i < 4; ++i)
        space.add("p" + std::to_string(i), ParamDomain::int_range(0, 7));
    return space;
}

Evaluation sum_eval(const Genome& g)
{
    double v = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i) v += g.gene(i);
    return {true, v};
}

RunResult traced_ga_run(std::size_t workers, const std::shared_ptr<MemorySink>& sink,
                        const std::shared_ptr<MetricsRegistry>& reg)
{
    const ParameterSpace space = toy_space();
    GaConfig cfg;
    cfg.generations = 12;
    cfg.seed = 2015;
    cfg.eval_workers = workers;
    cfg.obs.tracer = Tracer{sink};
    cfg.obs.metrics = reg;
    const GaEngine engine{space, cfg, Direction::maximize, sum_eval,
                          HintSet::none(space)};
    return engine.run();
}

// The acceptance contract: summed per-wave fresh counts equal the run's
// distinct_evaluations() exactly, at any worker count, and the search result
// itself is identical with tracing on.
TEST(ObsGaIntegrationConcurrency, WaveAccountingMatchesRunResultAcrossWorkerCounts)
{
    std::vector<RunResult> results;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        auto sink = std::make_shared<MemorySink>();
        auto reg = std::make_shared<MetricsRegistry>();
        const RunResult result = traced_ga_run(workers, sink, reg);

        std::uint64_t fresh = 0;
        std::uint64_t items = 0;
        std::uint64_t hits = 0;
        for (const TraceEvent& ev : sink->events_of("eval_wave")) {
            fresh += ev.unsigned_int("fresh").value();
            items += ev.unsigned_int("size").value();
            hits += ev.unsigned_int("hits").value();
            EXPECT_EQ(ev.unsigned_int("workers").value(), workers);
        }
        EXPECT_EQ(fresh, result.distinct_evals);
        EXPECT_EQ(items, result.total_eval_calls);
        EXPECT_EQ(items - hits, fresh);

        // The metrics registry agrees with the trace.
        EXPECT_EQ(reg->counter("eval.fresh").value(), result.distinct_evals);
        EXPECT_EQ(reg->counter("eval.items").value(), result.total_eval_calls);
        EXPECT_EQ(reg->counter("ga.runs").value(), 1u);
        EXPECT_EQ(reg->counter("ga.generations").value(), result.history.size());

        // run_start / run_end bracket the run and repeat the accounting.
        ASSERT_EQ(sink->events_of("run_start").size(), 1u);
        const auto ends = sink->events_of("run_end");
        ASSERT_EQ(ends.size(), 1u);
        EXPECT_EQ(ends[0].unsigned_int("distinct_evals").value(), result.distinct_evals);
        EXPECT_EQ(ends[0].unsigned_int("total_calls").value(), result.total_eval_calls);
        EXPECT_EQ(sink->events_of("generation").size(), result.history.size());

        results.push_back(result);
    }
    // Determinism contract: identical results at 1 and 4 workers.
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].distinct_evals, results[1].distinct_evals);
    EXPECT_EQ(results[0].best_eval.value, results[1].best_eval.value);
    EXPECT_EQ(results[0].best_genome.genes(), results[1].best_genome.genes());
}

TEST(ObsGaIntegration, TracingDoesNotChangeSearchResults)
{
    const ParameterSpace space = toy_space();
    GaConfig cfg;
    cfg.generations = 12;
    cfg.seed = 99;
    const GaEngine plain{space, cfg, Direction::maximize, sum_eval, HintSet::none(space)};
    const RunResult untraced = plain.run();

    cfg.obs = obs::Instrumentation::with_sink(std::make_shared<MemorySink>());
    const GaEngine traced{space, cfg, Direction::maximize, sum_eval, HintSet::none(space)};
    const RunResult with_trace = traced.run();

    EXPECT_EQ(untraced.distinct_evals, with_trace.distinct_evals);
    EXPECT_EQ(untraced.best_eval.value, with_trace.best_eval.value);
    EXPECT_EQ(untraced.best_genome.genes(), with_trace.best_genome.genes());
}

// The shared trace reader: a traced GA run folds into one closed run whose
// wave sums match run_end and that passes every check; a line that no
// longer parses and a run cut before its run_end are both reported.
TEST(ObsTraceRuns, FoldsAndChecksAGaTrace)
{
    const std::string dir = testing::TempDir();
    const std::string path = dir + "obs_trace_runs.jsonl";
    std::remove(path.c_str());
    const ParameterSpace space = toy_space();
    GaConfig cfg;
    cfg.generations = 6;
    cfg.obs = obs::Instrumentation::with_sink(std::make_shared<obs::JsonlFileSink>(path));
    const RunResult result =
        GaEngine{space, cfg, Direction::maximize, sum_eval, HintSet::none(space)}.run();
    cfg.obs = {};  // closes the file

    const obs::TraceFile file = obs::load_trace(path);
    EXPECT_TRUE(file.bad_lines.empty());
    const obs::TraceRuns trace = obs::fold_runs(file);
    ASSERT_EQ(trace.runs.size(), 1u);
    const obs::RunWindow& run = trace.runs[0];
    EXPECT_EQ(run.engine, "ga");
    EXPECT_TRUE(run.closed);
    EXPECT_EQ(run.fresh, result.distinct_evals);
    EXPECT_EQ(run.charged(), result.distinct_evals);
    EXPECT_EQ(run.items, result.total_eval_calls);
    ASSERT_TRUE(run.lineage.has_value());
    EXPECT_EQ(run.births.size(), run.lineage->births);
    EXPECT_TRUE(obs::check_runs(trace).empty());

    // Corrupt the second line (the first birth) and drop everything from
    // run_end on.
    std::ifstream in{path};
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    const std::string cut = dir + "obs_trace_runs_cut.jsonl";
    {
        std::ofstream out{cut};
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (lines[i].find("\"run_end\"") != std::string::npos) break;
            out << (i == 1 ? lines[i].substr(1) : lines[i]) << "\n";
        }
    }
    const obs::TraceRuns broken = obs::fold_runs(obs::load_trace(cut));
    ASSERT_EQ(broken.runs.size(), 1u);
    EXPECT_FALSE(broken.runs[0].closed);
    EXPECT_EQ(broken.runs[0].charged(), 0u);
    const std::vector<obs::Diagnostic> found = obs::check_runs(broken);
    ASSERT_EQ(found.size(), 2u);
    EXPECT_EQ(found[0].line, 2u);
    EXPECT_EQ(found[0].text, "unparseable trace line");
    EXPECT_EQ(found[1].line, 0u);
    EXPECT_EQ(found[1].text, "run 0 (ga, line 1): run_start without run_end");
    EXPECT_EQ(obs::check_runs(broken, /*require_run_end=*/false).size(), 1u);

    EXPECT_THROW(obs::load_trace(dir + "obs_trace_runs_missing.jsonl"), std::runtime_error);
    std::remove(path.c_str());
    std::remove(cut.c_str());
}

// The one trace comparison: fields in the skip list and the server-only
// job_summary event never take part; a changed kept field and an extra
// trailing event each fail, the first difference named by its lines,
// event type and field.
TEST(ObsTraceRuns, ComparesEveryEventBeyondTheSkipList)
{
    const auto wave = [](std::uint64_t fresh, double seconds) {
        TraceEvent ev{"eval_wave"};
        ev.add("fresh", FieldValue{fresh}).add("seconds", FieldValue{seconds});
        return ev;
    };
    const auto trace = [](std::vector<TraceEvent> events) {
        obs::TraceFile file;
        for (TraceEvent& ev : events) {
            file.events.push_back(std::move(ev));
            file.lines.push_back(file.events.size());
        }
        return file;
    };
    TraceEvent summary{"job_summary"};
    summary.add("fresh_evals", std::size_t{8});
    const obs::TraceFile base = trace({wave(5, 0.5), wave(3, 0.25)});

    EXPECT_FALSE(obs::compare_traces(base, trace({wave(5, 9.0), wave(3, 0.1)})));
    EXPECT_FALSE(obs::compare_traces(base, trace({wave(5, 0.5), wave(3, 0.25), summary})));

    const auto changed = obs::compare_traces(base, trace({wave(6, 0.5), wave(4, 0.25)}));
    ASSERT_TRUE(changed.has_value());
    EXPECT_EQ(changed->line, 1u);
    EXPECT_EQ(changed->text, "base line 1 vs candidate line 1: eval_wave field 'fresh': 5 vs 6");

    const auto extra =
        obs::compare_traces(base, trace({wave(5, 0.5), wave(3, 0.25), wave(1, 0.1)}));
    ASSERT_TRUE(extra.has_value());
    EXPECT_EQ(extra->line, 3u);
    EXPECT_EQ(extra->text, "candidate line 3: extra 'eval_wave' event (2 vs 3 compared events)");
}

TEST(ObsGaIntegration, BreedEventsClassifyGuidedDraws)
{
    const ParameterSpace space = toy_space();
    HintSet hints = HintSet::none(space);
    for (std::size_t p = 0; p < space.size(); ++p) {
        hints.param(p).importance = 50.0;
        hints.param(p).bias = 1.0;  // "increase the gene"
    }
    hints.set_confidence(0.8);

    auto sink = std::make_shared<MemorySink>();
    GaConfig cfg;
    cfg.generations = 10;
    cfg.seed = 3;
    cfg.obs = obs::Instrumentation::with_sink(sink);
    const GaEngine engine{space, cfg, Direction::maximize, sum_eval, hints};
    (void)engine.run();

    std::uint64_t bias = 0;
    std::uint64_t uniform = 0;
    std::uint64_t genes = 0;
    for (const TraceEvent& ev : sink->events_of("breed")) {
        bias += ev.unsigned_int("bias_draws").value();
        uniform += ev.unsigned_int("uniform_draws").value();
        genes += ev.unsigned_int("genes_mutated").value();
        const auto* imp = ev.find("importance");
        ASSERT_NE(imp, nullptr);
        EXPECT_EQ(std::get<std::vector<double>>(*imp).size(), space.size());
    }
    EXPECT_GT(genes, 0u);
    // With bias hints on every parameter at confidence 0.8, most mutation
    // draws are classified as bias-directed.
    EXPECT_GT(bias, uniform);
}

TEST(ObsEvalSummary, AggregatesAcrossRuns)
{
    const ParameterSpace space = toy_space();
    GaConfig cfg;
    cfg.generations = 6;
    cfg.seed = 11;
    const GaEngine engine{space, cfg, Direction::maximize, sum_eval, HintSet::none(space)};
    EvalSummary summary;
    (void)engine.run_many(3, &summary);
    EXPECT_EQ(summary.runs, 3u);
    EXPECT_GT(summary.distinct_evals, 0u);
    EXPECT_GE(summary.total_calls, summary.distinct_evals);
    const double rate = summary.cache_hit_rate();
    EXPECT_GE(rate, 0.0);
    EXPECT_LT(rate, 1.0);
    EXPECT_DOUBLE_EQ(EvalSummary{}.cache_hit_rate(), 0.0);
}

}  // namespace
}  // namespace nautilus
