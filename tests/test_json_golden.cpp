// Golden bytes for every JSON surface: the trace line, /status progress,
// /lineage (JSON and its Prometheus gauges), the /logs tail, the job list
// and a failed job's status, canonical job specs and the Chrome export.
// Each surface is built from fixed inputs; wall-clock fields are masked.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <regex>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/lineage.hpp"
#include "obs/log.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "serve/job_spec.hpp"
#include "serve/scheduler.hpp"

namespace nautilus {
namespace {

using obs::FieldValue;
using obs::TraceEvent;

const double kNaN = std::numeric_limits<double>::quiet_NaN();

// Replaces the number after each named key with T.
std::string mask(const std::string& json, const char* keys)
{
    const std::regex re{std::string{"\""} + keys + "\":[-+.eE0-9]+"};
    std::string out;
    std::regex_replace(std::back_inserter(out), json.begin(), json.end(), re, "\"$1\":T");
    return out;
}

std::string control_bytes()
{
    std::string s;
    for (int c = 0; c < 0x20; ++c) s += static_cast<char>(c);
    return s;
}

// ---------------------------------------------------------- fixed inputs

std::string trace_line()
{
    TraceEvent ev{"golden"};
    ev.t = 0.5;
    ev.add("yes", FieldValue{true})
        .add("no", FieldValue{false})
        .add("neg", FieldValue{std::int64_t{-7}})
        .add("max", FieldValue{std::numeric_limits<std::uint64_t>::max()})
        .add("tenth", FieldValue{0.1})
        .add("whole", FieldValue{3.0})
        .add("nan", FieldValue{kNaN})
        .add("inf", FieldValue{-std::numeric_limits<double>::infinity()})
        .add("tiny", FieldValue{4.9406564584124654e-324})
        .add("ctl", FieldValue{control_bytes() + "\x7f \"q\" \\b\\ /s/ \xc3\xa9"})
        .add(std::string{"k\x01\r"}, "key")
        .add("vec", FieldValue{std::vector<double>{1.0, -2.5, kNaN, 1e-300, 1e300}})
        .add("empty", FieldValue{std::vector<double>{}});
    return obs::to_jsonl(ev);
}

obs::ProgressSnapshot running_snapshot()
{
    obs::ProgressSnapshot s;
    s.engine = "ga \"q\" \\ \n \t \x01 \x1f";
    s.running = true;
    s.runs_started = 2;
    s.runs_completed = 1;
    s.units_done = 5;
    s.units_total = 20;
    s.units_at_start = 1;
    s.have_best = true;
    s.best = 123.456;
    s.distinct_evals = 40;
    s.eval_calls = 64;
    s.cache_hits = 24;
    s.eval_seconds = 0.5;
    s.elapsed_seconds = 2.25;
    s.run_elapsed_seconds = 1.5;
    return s;
}

obs::LineageCounters lineage_counters(bool last, bool winner)
{
    obs::LineageCounters c;
    std::uint64_t v = 1;
    for (std::uint64_t* f :
         {&c.runs, &c.births, &c.roots, &c.elites, &c.mutation_births, &c.crossover_births,
          &c.survived, &c.improved, &c.genes_fresh, &c.genes_inherited, &c.genes_crossed,
          &c.genes_uniform, &c.genes_bias, &c.genes_target, &c.genes_repair})
        *f = v++;
    if (!last) return c;
    c.have_last = true;
    c.engine = "nsga2";
    obs::LineageSummary& s = c.last;
    for (std::uint64_t* f :
         {&s.births, &s.births_at_start, &s.roots, &s.elites, &s.mutation_births,
          &s.crossover_births, &s.survived, &s.improved, &s.genes_fresh, &s.genes_inherited,
          &s.genes_crossed, &s.genes_uniform, &s.genes_bias, &s.genes_target, &s.genes_repair,
          &s.offspring_uniform, &s.offspring_bias, &s.offspring_target, &s.survived_uniform,
          &s.survived_bias, &s.survived_target, &s.improved_uniform, &s.improved_bias,
          &s.improved_target, &s.winner, &s.winner_count, &s.winner_genes, &s.winner_fresh,
          &s.winner_uniform, &s.winner_bias, &s.winner_target, &s.winner_repair,
          &s.winner_depth})
        *f = 100 + v++;
    s.have_winner = winner;
    return c;
}

std::string logger_tail()
{
    obs::Logger log{obs::LogConfig{obs::LogLevel::debug, "", 4}};
    for (int i = 0; i < 5; ++i) {
        TraceEvent ev{"access"};
        ev.add("seq", i).add("path", "/jobs?x=\"1\"\\\t");
        log.log(i % 2 == 0 ? obs::LogLevel::info : obs::LogLevel::debug, std::move(ev));
    }
    TraceEvent big{"oversized"};
    big.add("pad", FieldValue{std::string(900, 'x')});
    log.log(obs::LogLevel::warn, std::move(big));
    log.log(obs::LogLevel::error, TraceEvent{"last"});
    return mask(log.tail_json(3), "(t)");
}

std::vector<TraceEvent> chrome_events()
{
    std::vector<TraceEvent> events;
    const auto at = [&events](const char* type, double t) -> TraceEvent& {
        events.emplace_back(type).t = t;
        return events.back();
    };
    at("run_start", 0.001)
        .add("engine", "ga")
        .add("note", "q\" b\\ n\n t\t c\x01 d\x1f")
        .add("workers", std::size_t{2})
        .add("neg", -3)
        .add("flag", FieldValue{true})
        .add("ratio", FieldValue{0.25})
        .add("nan", FieldValue{kNaN})
        .add("vec", FieldValue{std::vector<double>{1.0, 2.0}});
    at("span", 0.004).add("name", "breed").add("seconds", FieldValue{0.002}).add("depth", 1);
    at("eval_wave", 0.006)
        .add("seconds", FieldValue{0.003})
        .add("size", std::size_t{10})
        .add("fresh", std::size_t{8})
        .add("hits", std::size_t{2});
    at("generation", 0.007)
        .add("gen", std::size_t{1})
        .add("best_so_far", FieldValue{123.5})
        .add("diversity", FieldValue{0.75})
        .add("distinct_total", std::size_t{8});
    at("generation", 0.008)
        .add("gen", std::size_t{2})
        .add("best_so_far", FieldValue{kNaN})
        .add("distinct_total", std::size_t{9});
    at("span", 0.0000005).add("name", "a\"b").add("seconds", FieldValue{0.001});
    at("run_end", 0.01).add("best", FieldValue{99.0});
    return events;
}

// ------------------------------------------------- expected bytes

constexpr const char* kGoldenTraceLine =
    "{\"type\":\"golden\",\"t\":0.5,\"yes\":true,\"no\":false,\"neg\":-7,\"max\":18446744"
    "073709551615,\"tenth\":0.10000000000000001,\"whole\":3.0,\"nan\":null,\"inf\":null,"
    "\"tiny\":4.9406564584124654e-324,\"ctl\":\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u000"
    "5\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0"
    "013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u0"
    "01f\177 \\\"q\\\" \\\\b\\\\ /s/ \303\251\",\"k\\u0001\\r\":\"key\",\"vec\":[1.0,-2.5"
    ",null,1e-300,1.0000000000000001e+300],\"empty\":[]}";

constexpr const char* kGoldenProgressRunning =
    "{\"engine\":\"ga \\\"q\\\" \\\\ \\n \\t \\u0001 \\u001f\",\"running\":true,\"runs_st"
    "arted\":2,\"runs_completed\":1,\"generation\":5,\"generations_total\":20,\"generatio"
    "ns_at_start\":1,\"best\":123.456,\"distinct_evals\":40,\"eval_calls\":64,\"cache_hit"
    "s\":24,\"cache_hit_rate\":0.375,\"eval_seconds\":0.5,\"elapsed_seconds\":2.25,\"run_"
    "elapsed_seconds\":1.5,\"evals_per_second\":26.666666666666668,\"eta_seconds\":5.625}";

constexpr const char* kGoldenProgressIdle =
    "{\"engine\":\"\",\"running\":false,\"runs_started\":0,\"runs_completed\":0,\"generat"
    "ion\":0,\"generations_total\":0,\"generations_at_start\":0,\"best\":null,\"distinct_"
    "evals\":0,\"eval_calls\":0,\"cache_hits\":0,\"cache_hit_rate\":0.0,\"eval_seconds\":"
    "0.0,\"elapsed_seconds\":0.0,\"run_elapsed_seconds\":0.0,\"evals_per_second\":0.0,\"e"
    "ta_seconds\":null}";

constexpr const char* kGoldenLineageNoLast =
    "{\"runs\":1,\"births\":2,\"roots\":3,\"elites\":4,\"mutation_births\":5,\"crossover_"
    "births\":6,\"survived\":7,\"improved\":8,\"genes_fresh\":9,\"genes_inherited\":10,\""
    "genes_crossed\":11,\"genes_uniform\":12,\"genes_bias\":13,\"genes_target\":14,\"gene"
    "s_repair\":15,\"last_run\":null}";

constexpr const char* kGoldenLineageLast =
    "{\"runs\":1,\"births\":2,\"roots\":3,\"elites\":4,\"mutation_births\":5,\"crossover_"
    "births\":6,\"survived\":7,\"improved\":8,\"genes_fresh\":9,\"genes_inherited\":10,\""
    "genes_crossed\":11,\"genes_uniform\":12,\"genes_bias\":13,\"genes_target\":14,\"gene"
    "s_repair\":15,\"last_run\":{\"engine\":\"nsga2\",\"births\":116,\"births_at_start\":"
    "117,\"roots\":118,\"elites\":119,\"mutation_births\":120,\"crossover_births\":121,\""
    "survived\":122,\"improved\":123,\"genes_fresh\":124,\"genes_inherited\":125,\"genes_"
    "crossed\":126,\"genes_uniform\":127,\"genes_bias\":128,\"genes_target\":129,\"genes_"
    "repair\":130,\"offspring_uniform\":131,\"offspring_bias\":132,\"offspring_target\":1"
    "33,\"survived_uniform\":134,\"survived_bias\":135,\"survived_target\":136,\"improved"
    "_uniform\":137,\"improved_bias\":138,\"improved_target\":139}}";

constexpr const char* kGoldenLineageWinner =
    "{\"runs\":1,\"births\":2,\"roots\":3,\"elites\":4,\"mutation_births\":5,\"crossover_"
    "births\":6,\"survived\":7,\"improved\":8,\"genes_fresh\":9,\"genes_inherited\":10,\""
    "genes_crossed\":11,\"genes_uniform\":12,\"genes_bias\":13,\"genes_target\":14,\"gene"
    "s_repair\":15,\"last_run\":{\"engine\":\"nsga2\",\"births\":116,\"births_at_start\":"
    "117,\"roots\":118,\"elites\":119,\"mutation_births\":120,\"crossover_births\":121,\""
    "survived\":122,\"improved\":123,\"genes_fresh\":124,\"genes_inherited\":125,\"genes_"
    "crossed\":126,\"genes_uniform\":127,\"genes_bias\":128,\"genes_target\":129,\"genes_"
    "repair\":130,\"offspring_uniform\":131,\"offspring_bias\":132,\"offspring_target\":1"
    "33,\"survived_uniform\":134,\"survived_bias\":135,\"survived_target\":136,\"improved"
    "_uniform\":137,\"improved_bias\":138,\"improved_target\":139,\"winner\":140,\"winner"
    "_count\":141,\"winner_genes\":142,\"winner_fresh\":143,\"winner_uniform\":144,\"winn"
    "er_bias\":145,\"winner_target\":146,\"winner_repair\":147,\"winner_depth\":148}}";

constexpr const char* kGoldenLineageExposition =
    "# TYPE nautilus_lineage_runs gauge\n"
    "nautilus_lineage_runs 1\n"
    "# TYPE nautilus_lineage_births gauge\n"
    "nautilus_lineage_births 2\n"
    "# TYPE nautilus_lineage_roots gauge\n"
    "nautilus_lineage_roots 3\n"
    "# TYPE nautilus_lineage_elites gauge\n"
    "nautilus_lineage_elites 4\n"
    "# TYPE nautilus_lineage_mutation_births gauge\n"
    "nautilus_lineage_mutation_births 5\n"
    "# TYPE nautilus_lineage_crossover_births gauge\n"
    "nautilus_lineage_crossover_births 6\n"
    "# TYPE nautilus_lineage_survived gauge\n"
    "nautilus_lineage_survived 7\n"
    "# TYPE nautilus_lineage_improved gauge\n"
    "nautilus_lineage_improved 8\n"
    "# TYPE nautilus_lineage_genes_fresh gauge\n"
    "nautilus_lineage_genes_fresh 9\n"
    "# TYPE nautilus_lineage_genes_inherited gauge\n"
    "nautilus_lineage_genes_inherited 10\n"
    "# TYPE nautilus_lineage_genes_crossed gauge\n"
    "nautilus_lineage_genes_crossed 11\n"
    "# TYPE nautilus_lineage_genes_uniform gauge\n"
    "nautilus_lineage_genes_uniform 12\n"
    "# TYPE nautilus_lineage_genes_bias gauge\n"
    "nautilus_lineage_genes_bias 13\n"
    "# TYPE nautilus_lineage_genes_target gauge\n"
    "nautilus_lineage_genes_target 14\n"
    "# TYPE nautilus_lineage_genes_repair gauge\n"
    "nautilus_lineage_genes_repair 15\n"
    "# TYPE nautilus_lineage_last_births gauge\n"
    "nautilus_lineage_last_births 116\n"
    "# TYPE nautilus_lineage_last_survived gauge\n"
    "nautilus_lineage_last_survived 122\n"
    "# TYPE nautilus_lineage_last_improved gauge\n"
    "nautilus_lineage_last_improved 123\n"
    "# TYPE nautilus_lineage_last_offspring_uniform gauge\n"
    "nautilus_lineage_last_offspring_uniform 131\n"
    "# TYPE nautilus_lineage_last_offspring_bias gauge\n"
    "nautilus_lineage_last_offspring_bias 132\n"
    "# TYPE nautilus_lineage_last_offspring_target gauge\n"
    "nautilus_lineage_last_offspring_target 133\n"
    "# TYPE nautilus_lineage_last_survived_uniform gauge\n"
    "nautilus_lineage_last_survived_uniform 134\n"
    "# TYPE nautilus_lineage_last_survived_bias gauge\n"
    "nautilus_lineage_last_survived_bias 135\n"
    "# TYPE nautilus_lineage_last_survived_target gauge\n"
    "nautilus_lineage_last_survived_target 136\n"
    "# TYPE nautilus_lineage_last_improved_uniform gauge\n"
    "nautilus_lineage_last_improved_uniform 137\n"
    "# TYPE nautilus_lineage_last_improved_bias gauge\n"
    "nautilus_lineage_last_improved_bias 138\n"
    "# TYPE nautilus_lineage_last_improved_target gauge\n"
    "nautilus_lineage_last_improved_target 139\n"
    "# TYPE nautilus_lineage_winner_genes gauge\n"
    "nautilus_lineage_winner_genes 142\n"
    "# TYPE nautilus_lineage_winner_fresh gauge\n"
    "nautilus_lineage_winner_fresh 143\n"
    "# TYPE nautilus_lineage_winner_uniform gauge\n"
    "nautilus_lineage_winner_uniform 144\n"
    "# TYPE nautilus_lineage_winner_bias gauge\n"
    "nautilus_lineage_winner_bias 145\n"
    "# TYPE nautilus_lineage_winner_target gauge\n"
    "nautilus_lineage_winner_target 146\n"
    "# TYPE nautilus_lineage_winner_repair gauge\n"
    "nautilus_lineage_winner_repair 147\n"
    "# TYPE nautilus_lineage_winner_depth gauge\n"
    "nautilus_lineage_winner_depth 148\n";

constexpr const char* kGoldenLoggerTail =
    "{\"logged\":7,\"dropped\":1,\"records\":[{\"type\":\"access\",\"t\":T,\"level\":\"de"
    "bug\",\"seq\":3,\"path\":\"/jobs?x=\\\"1\\\"\\\\\\t\"},{\"type\":\"access\",\"t\":T,"
    "\"level\":\"info\",\"seq\":4,\"path\":\"/jobs?x=\\\"1\\\"\\\\\\t\"},{\"type\":\"last"
    "\",\"t\":T,\"level\":\"error\"}]}";

constexpr const char* kGoldenFailedStatus =
    "{\"id\":1,\"state\":\"failed\",\"engine\":\"random\",\"workers\":1,\"resumed\":false"
    ",\"spec\":{\"engine\":\"random\",\"ip\":\"router\",\"metric\":\"freq_mhz\",\"directi"
    "on\":\"max\",\"guidance\":\"none\",\"evals\":5,\"seed\":3,\"workers\":1},\"progress"
    "\":{\"engine\":\"\",\"running\":false,\"runs_started\":0,\"runs_completed\":0,\"gene"
    "ration\":0,\"generations_total\":0,\"generations_at_start\":0,\"best\":null,\"distin"
    "ct_evals\":0,\"eval_calls\":0,\"cache_hits\":0,\"cache_hit_rate\":0.0,\"eval_seconds"
    "\":0.0,\"elapsed_seconds\":T,\"run_elapsed_seconds\":T,\"evals_per_second\":0.0,\"et"
    "a_seconds\":null},\"accounting\":{\"workers\":1,\"queue_wait_seconds\":T,\"run_secon"
    "ds\":T},\"error\":\"JsonlFileSink: cannot open 'json-golden-missing-dir/sub/job-1.tr"
    "ace.jsonl'\"}\n";

constexpr const char* kGoldenJobList =
    "{\"capacity\":2,\"free_workers\":2,\"queued\":0,\"jobs\":[{\"id\":1,\"state\":\"fail"
    "ed\",\"engine\":\"random\",\"workers\":1}]}\n";

constexpr const char* kGoldenNotFound =
    "{\"error\":\"no such job\"}\n";

constexpr const char* kGoldenBadSpec =
    "{\"error\":\"missing field 'generations': ga jobs take their budget in generations\"}\n";

constexpr const char* kGoldenCanonicalSpecs =
    "{\"engine\":\"ga\",\"ip\":\"router\",\"metric\":\"freq_mhz\",\"direction\":\"max\","
    "\"guidance\":\"strong\",\"generations\":12,\"population\":24,\"seed\":1,\"workers\":"
    "1}\n"
    "{\"engine\":\"nsga2\",\"ip\":\"network\",\"metric\":\"bisection_gbps\",\"metric2\":"
    "\"power_mw\",\"direction\":\"max\",\"guidance\":\"none\",\"generations\":3,\"seed\":"
    "99,\"workers\":4}\n"
    "{\"engine\":\"random\",\"ip\":\"fft\",\"metric\":\"area_luts\",\"direction\":\"max\""
    ",\"guidance\":\"none\",\"evals\":30,\"seed\":1,\"workers\":1}\n";

constexpr const char* kGoldenChromeTrace =
    "[{\"name\":\"a\\\"b\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"dur\":1000.000"
    ",\"args\":{\"name\":\"a\\\"b\",\"seconds\":0.001}},\n"
    "{\"name\":\"run_start\",\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\"tid\":1,\"ts\":1000.000"
    ",\"args\":{\"engine\":\"ga\",\"note\":\"q\\\" b\\\\ n\\n t\\t c\\u0001 d\\u001f\",\""
    "workers\":2,\"neg\":-3,\"flag\":true,\"ratio\":0.25,\"nan\":null}},\n"
    "{\"name\":\"breed\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":2000.000,\"dur\":2000.00"
    "0,\"args\":{\"name\":\"breed\",\"seconds\":0.002,\"depth\":1}},\n"
    "{\"name\":\"eval_wave\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":3000.000,\"dur\":300"
    "0.000,\"args\":{\"seconds\":0.0030000000000000001,\"size\":10,\"fresh\":8,\"hits\":2"
    "}},\n"
    "{\"name\":\"best_so_far\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":7000.000,\"args\":"
    "{\"value\":123.5}},\n"
    "{\"name\":\"diversity\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":7000.000,\"args\":{"
    "\"value\":0.75}},\n"
    "{\"name\":\"distinct_evals\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":7000.000,\"args"
    "\":{\"value\":8}},\n"
    "{\"name\":\"generation\",\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\"tid\":1,\"ts\":7000.00"
    "0,\"args\":{\"gen\":1,\"best_so_far\":123.5,\"diversity\":0.75,\"distinct_total\":8}"
    "},\n"
    "{\"name\":\"distinct_evals\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":8000.000,\"args"
    "\":{\"value\":9}},\n"
    "{\"name\":\"generation\",\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\"tid\":1,\"ts\":8000.00"
    "0,\"args\":{\"gen\":2,\"best_so_far\":null,\"distinct_total\":9}},\n"
    "{\"name\":\"run_end\",\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\"tid\":1,\"ts\":10000.000,"
    "\"args\":{\"best\":99}}]\n";

// ------------------------------------------------------------- the goldens

TEST(JsonGolden, TraceLineCoversEveryKindAndControlByte)
{
    EXPECT_EQ(trace_line(), kGoldenTraceLine);
}

TEST(JsonGolden, ProgressStatus)
{
    EXPECT_EQ(obs::to_json(running_snapshot()), kGoldenProgressRunning);
    EXPECT_EQ(obs::to_json(obs::ProgressSnapshot{}), kGoldenProgressIdle);
}

TEST(JsonGolden, LineageJsonWithAndWithoutLastRunAndWinner)
{
    EXPECT_EQ(obs::to_json(lineage_counters(false, false)), kGoldenLineageNoLast);
    EXPECT_EQ(obs::to_json(lineage_counters(true, false)), kGoldenLineageLast);
    EXPECT_EQ(obs::to_json(lineage_counters(true, true)), kGoldenLineageWinner);
}

TEST(JsonGolden, LineagePrometheusGauges)
{
    std::string out;
    obs::append_lineage_exposition(out, lineage_counters(true, true));
    EXPECT_EQ(out, kGoldenLineageExposition);
}

TEST(JsonGolden, LoggerTail)
{
    EXPECT_EQ(logger_tail(), kGoldenLoggerTail);
}

// A jobs_dir that does not exist fails the job when its trace cannot be
// opened, which gives a failed job with a fixed error.
TEST(JsonGolden, SchedulerListAndFailedJobStatus)
{
    serve::SchedulerConfig cfg;
    cfg.worker_capacity = 2;
    cfg.jobs_dir = "json-golden-missing-dir/sub";
    serve::JobScheduler sched{cfg};
    const serve::SubmitResult r = sched.submit(R"({"engine":"random","evals":5,"seed":3})");
    ASSERT_EQ(r.status, 201);
    ASSERT_TRUE(sched.wait(r.id, 30.0));
    EXPECT_EQ(mask(sched.status_json(r.id),
                   "(elapsed_seconds|run_elapsed_seconds|queue_wait_seconds|run_seconds)"),
              kGoldenFailedStatus);
    EXPECT_EQ(sched.list_json(), kGoldenJobList);
    EXPECT_EQ(sched.handle_jobs("GET", "/jobs/99", "", 0).body, kGoldenNotFound);
    EXPECT_EQ(sched.handle_jobs("POST", "/jobs", R"({"engine":"ga","bogus":1})", 0).body,
              kGoldenBadSpec);
}

TEST(JsonGolden, CanonicalSpecs)
{
    std::string out;
    for (const char* spec :
         {R"({"engine":"ga","generations":12,"population":24,"guidance":"strong"})",
          R"({"engine":"nsga2","ip":"network","metric":"bisection_gbps",)"
          R"("metric2":"power_mw","generations":3,"workers":4,"seed":99})",
          R"({"engine":"random","ip":"fft","evals":30,"direction":"max"})"}) {
        out += serve::canonical_spec_json(serve::parse_job_spec(spec));
        out += '\n';
    }
    EXPECT_EQ(out, kGoldenCanonicalSpecs);
}

TEST(JsonGolden, ChromeTrace)
{
    EXPECT_EQ(obs::chrome_trace_json(chrome_events()), kGoldenChromeTrace);
}

}  // namespace
}  // namespace nautilus
