// Lineage & hint attribution (DESIGN.md §11): recorder unit behavior, the
// zero-RNG-impact contract, birth/draw conservation against breed events,
// survival of birth records under quarantine, resume reproducibility, and
// the guided-vs-unguided attribution acceptance test.

#include "obs/lineage.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/ga.hpp"
#include "core/local_search.hpp"
#include "core/nautilus.hpp"
#include "core/nsga2.hpp"
#include "noc/router_generator.hpp"

namespace nautilus {
namespace {

using obs::BirthOp;
using obs::GeneOrigin;
using obs::MemorySink;
using obs::TraceEvent;
using obs::Tracer;

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

// Remove one "key":value pair from a flat JSON object rendering, so event
// lines can be compared modulo timestamps / resume bookkeeping.
std::string drop_field(std::string json, const std::string& key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos) return json;
    std::size_t end = json.find_first_of(",}", at + needle.size());
    if (end != std::string::npos && json[end] == ',')
        ++end;  // interior field: eat the trailing comma
    return json.erase(at, end - at);
}

// ---- codes & names ----------------------------------------------------------

TEST(LineageOrigins, CodesAndNamesRoundTrip)
{
    const std::vector<GeneOrigin> all{
        GeneOrigin::fresh,   GeneOrigin::parent_a, GeneOrigin::parent_b,
        GeneOrigin::uniform, GeneOrigin::bias,     GeneOrigin::target,
        GeneOrigin::repair,
    };
    const std::string codes = obs::origin_codes(all);
    EXPECT_EQ(codes, "faxubtr");
    std::vector<GeneOrigin> back;
    ASSERT_TRUE(obs::origins_from_codes(codes, back));
    EXPECT_EQ(back, all);

    EXPECT_EQ(obs::origin_codes({}), "-");
    ASSERT_TRUE(obs::origins_from_codes("-", back));
    EXPECT_TRUE(back.empty());
    EXPECT_FALSE(obs::origins_from_codes("z", back));

    obs::BirthOp op;
    for (const char* name : {"init", "resume", "elite", "mutation", "crossover"}) {
        ASSERT_TRUE(obs::birth_op_from_name(name, op)) << name;
        EXPECT_STREQ(obs::birth_op_name(op), name);
    }
    EXPECT_FALSE(obs::birth_op_from_name("nope", op));
}

// ---- recorder ---------------------------------------------------------------

TEST(LineageRecorder, MintsDenseRecordsEmitsEventsAndSummarizes)
{
    auto sink = std::make_shared<MemorySink>();
    const Tracer tracer{sink};
    obs::LineageRecorder rec{&tracer, nullptr, "ga"};

    const std::uint64_t r0 = rec.on_root(0, BirthOp::init, 3);
    const std::uint64_t r1 = rec.on_root(0, BirthOp::init, 3);
    const std::uint64_t child = rec.on_child(
        r0, r1, /*crossed=*/true, 1,
        {GeneOrigin::parent_a, GeneOrigin::bias, GeneOrigin::parent_b});
    const std::uint64_t elite = rec.on_elite(child, 1);
    rec.on_improved(child);

    EXPECT_EQ(r0, 0u);
    EXPECT_EQ(r1, 1u);
    EXPECT_EQ(child, 2u);
    EXPECT_EQ(elite, 3u);
    EXPECT_EQ(rec.births(), 4u);

    const obs::BirthRecord* cr = rec.record(child);
    ASSERT_NE(cr, nullptr);
    EXPECT_EQ(cr->parent_a, r0);
    EXPECT_EQ(cr->parent_b, r1);
    EXPECT_EQ(cr->op, BirthOp::crossover);
    EXPECT_TRUE(cr->survived);  // elitism marks the copied parent survived
    EXPECT_TRUE(cr->improved);

    const obs::LineageSummary s = rec.finish(std::vector<std::uint64_t>{child});
    EXPECT_EQ(s.births, 4u);
    EXPECT_EQ(s.roots, 2u);
    EXPECT_EQ(s.elites, 1u);
    EXPECT_EQ(s.crossover_births, 1u);
    EXPECT_EQ(s.genes_bias, 1u);
    EXPECT_EQ(s.genes_inherited, 1u);
    EXPECT_EQ(s.genes_crossed, 1u);
    EXPECT_EQ(s.offspring_bias, 1u);
    EXPECT_EQ(s.improved_bias, 1u);
    ASSERT_TRUE(s.have_winner);
    EXPECT_EQ(s.winner, child);
    EXPECT_EQ(s.winner_count, 1u);
    EXPECT_EQ(s.winner_genes, 3u);
    EXPECT_EQ(s.winner_bias, 1u);
    EXPECT_EQ(s.winner_fresh, 2u);  // inherited genes walk back to init roots
    EXPECT_EQ(s.winner_depth, 1u);

    EXPECT_EQ(sink->events_of("birth").size(), 4u);
    const auto summaries = sink->events_of("lineage_summary");
    ASSERT_EQ(summaries.size(), 1u);
    EXPECT_EQ(summaries[0].string("engine").value_or(""), "ga");
    EXPECT_EQ(summaries[0].unsigned_int("births").value_or(0), 4u);
}

TEST(LineageRecorder, SnapshotRestoreRoundTrip)
{
    obs::LineageRecorder rec{nullptr, nullptr, "ga"};
    const std::uint64_t a = rec.on_root(0, BirthOp::init, 2);
    const std::uint64_t b =
        rec.on_child(a, obs::k_no_parent, false, 1,
                     {GeneOrigin::parent_a, GeneOrigin::uniform});
    rec.on_improved(b);

    const obs::LineageState state = rec.snapshot({b});
    EXPECT_EQ(state.next_id, 2u);
    EXPECT_EQ(state.last_improved, b);
    EXPECT_EQ(state.slot_ids, (std::vector<std::uint64_t>{b}));
    ASSERT_EQ(state.records.size(), 2u);

    obs::LineageRecorder fresh{nullptr, nullptr, "ga"};
    fresh.restore(state);
    EXPECT_EQ(fresh.births(), 2u);
    EXPECT_EQ(fresh.births_at_start(), 2u);
    EXPECT_EQ(fresh.last_improved(), b);
    const obs::BirthRecord* rb = fresh.record(b);
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(rb->parent_a, a);
    EXPECT_TRUE(rb->improved);

    const obs::LineageSummary s = fresh.finish(std::vector<std::uint64_t>{b});
    EXPECT_EQ(s.births, 2u);
    EXPECT_EQ(s.births_at_start, 2u);
    EXPECT_EQ(s.winner_uniform, 1u);
}

// ---- GA integration ---------------------------------------------------------

RunResult ga_run(GaConfig cfg, const std::shared_ptr<MemorySink>& sink)
{
    const ParameterSpace space = toy_space();
    if (sink != nullptr) cfg.obs.tracer = Tracer{sink};
    const GaEngine engine{space, cfg, Direction::maximize, sum_eval,
                          HintSet::none(space)};
    return engine.run();
}

GaConfig toy_cfg()
{
    GaConfig cfg;
    cfg.generations = 12;
    cfg.seed = 2015;
    return cfg;
}

// Lineage recording never touches the RNG, so a run with a tracer, a live
// tracker, both, or neither produces bit-identical results.
TEST(LineageGa, RecordingDrawsNothingFromTheRng)
{
    const RunResult plain = ga_run(toy_cfg(), nullptr);

    std::vector<RunResult> variants;
    for (const int mode : {1, 2, 3}) {  // 1=tracker, 2=tracer, 3=both
        GaConfig cfg = toy_cfg();
        if (mode & 1) cfg.obs.lineage = std::make_shared<obs::LineageTracker>();
        variants.push_back(ga_run(cfg, mode & 2 ? std::make_shared<MemorySink>() : nullptr));
    }

    for (const RunResult& r : variants) {
        EXPECT_EQ(r.final_rng_state, plain.final_rng_state);
        EXPECT_DOUBLE_EQ(r.best_eval.value, plain.best_eval.value);
        EXPECT_EQ(r.distinct_evals, plain.distinct_evals);
        EXPECT_EQ(r.best_genome.key(), plain.best_genome.key());
    }
}

// Conservation against the breed events: per generation, births equal the
// bred children plus elites, and per-origin gene counts equal the mutation
// draw tallies the breeding core reports.
TEST(LineageGa, BirthAccountingMatchesBreedEvents)
{
    auto sink = std::make_shared<MemorySink>();
    const RunResult result = ga_run(toy_cfg(), sink);

    struct GenTally {
        std::uint64_t births = 0, elites = 0, uniform = 0, bias = 0, target = 0;
    };
    std::map<std::uint64_t, GenTally> born;
    std::uint64_t roots = 0;
    std::uint64_t expected_id = 0;
    for (const TraceEvent& ev : sink->events_of("birth")) {
        EXPECT_EQ(ev.unsigned_int("id").value_or(~0ull), expected_id++);
        const std::string op = ev.string("op").value_or("");
        if (op == "init" || op == "resume") {
            ++roots;
            continue;
        }
        GenTally& t = born[ev.unsigned_int("gen").value_or(0)];
        ++t.births;
        if (op == "elite") ++t.elites;
        for (const char c : ev.string("origins").value_or("")) {
            if (c == 'u') ++t.uniform;
            if (c == 'b') ++t.bias;
            if (c == 't') ++t.target;
        }
    }
    EXPECT_EQ(roots, toy_cfg().population_size);

    const auto breeds = sink->events_of("breed");
    ASSERT_EQ(breeds.size(), born.size());
    for (const TraceEvent& ev : breeds) {
        const auto it = born.find(ev.unsigned_int("gen").value_or(~0ull));
        ASSERT_NE(it, born.end());
        const GenTally& t = it->second;
        EXPECT_EQ(t.births, ev.unsigned_int("children").value_or(0) +
                                ev.unsigned_int("elites").value_or(0));
        EXPECT_EQ(t.elites, ev.unsigned_int("elites").value_or(0));
        EXPECT_EQ(t.uniform, ev.unsigned_int("uniform_draws").value_or(0));
        EXPECT_EQ(t.bias, ev.unsigned_int("bias_draws").value_or(0));
        EXPECT_EQ(t.target, ev.unsigned_int("target_draws").value_or(0));
    }

    const auto summaries = sink->events_of("lineage_summary");
    ASSERT_EQ(summaries.size(), 1u);
    EXPECT_EQ(summaries[0].unsigned_int("births").value_or(0),
              toy_cfg().population_size * result.history.size());
}

// Satellite: a quarantined design point is still a born genome — fault
// tolerance must not punch holes in the birth ledger.
TEST(LineageGa, QuarantinedOffspringStillGetBirthRecords)
{
    GaConfig cfg = toy_cfg();
    cfg.fault.tolerate_failures = true;
    cfg.obs.lineage = std::make_shared<obs::LineageTracker>();
    auto sink = std::make_shared<MemorySink>();
    cfg.obs.tracer = Tracer{sink};

    FaultInjectionConfig fic;
    fic.fail_rate = 0.05;
    fic.permanent = true;  // retries cannot recover => quarantine path
    fic.seed = 0xfeed;
    const ParameterSpace space = toy_space();
    FaultInjectingEvaluator chaos{sum_eval, fic};
    const GaEngine engine{space, cfg, Direction::maximize, chaos.as_eval_fn(),
                          HintSet::none(space)};
    const RunResult result = engine.run();
    ASSERT_GE(result.fault.quarantined, 1u);

    // Every slot of every generation was recorded, dense and conserved.
    const auto births = sink->events_of("birth");
    EXPECT_EQ(births.size(), cfg.population_size * result.history.size());
    std::uint64_t expected_id = 0;
    for (const TraceEvent& ev : births)
        EXPECT_EQ(ev.unsigned_int("id").value_or(~0ull), expected_id++);

    const obs::LineageCounters counters = cfg.obs.lineage->counters();
    EXPECT_EQ(counters.births, births.size());
    EXPECT_TRUE(counters.have_last);
    EXPECT_EQ(counters.last.births, births.size());
}

// Satellite: --die-at-gen followed by resume yields the same lineage summary
// as the uninterrupted run (modulo births_at_start bookkeeping), at 1 and 4
// workers.
TEST(LineageGa, ResumeReproducesUninterruptedSummaries)
{
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        const std::string path = testing::TempDir() + "lineage_resume_w" +
                                 std::to_string(workers) + ".ckpt";

        auto uninterrupted = std::make_shared<MemorySink>();
        GaConfig full = toy_cfg();
        full.eval_workers = workers;
        ga_run(full, uninterrupted);

        GaConfig dying = toy_cfg();
        dying.eval_workers = workers;
        dying.checkpoint_path = path;
        dying.halt_at_generation = 5;
        const RunResult halted = ga_run(dying, std::make_shared<MemorySink>());
        ASSERT_TRUE(halted.halted);

        auto resumed_sink = std::make_shared<MemorySink>();
        GaConfig resumed_cfg = toy_cfg();
        resumed_cfg.eval_workers = workers;
        resumed_cfg.checkpoint_path = path;
        resumed_cfg.obs.tracer = Tracer{resumed_sink};
        const ParameterSpace space = toy_space();
        const GaEngine engine{space, resumed_cfg, Direction::maximize, sum_eval,
                              HintSet::none(space)};
        const RunResult resumed = engine.resume(path);
        std::remove(path.c_str());
        EXPECT_FALSE(resumed.halted);

        const auto full_sum = uninterrupted->events_of("lineage_summary");
        const auto resumed_sum = resumed_sink->events_of("lineage_summary");
        ASSERT_EQ(full_sum.size(), 1u) << "workers " << workers;
        ASSERT_EQ(resumed_sum.size(), 1u) << "workers " << workers;
        EXPECT_GT(resumed_sum[0].unsigned_int("births_at_start").value_or(0), 0u);
        const auto normalize = [](const TraceEvent& ev) {
            return drop_field(drop_field(to_jsonl(ev), "t"), "births_at_start");
        };
        EXPECT_EQ(normalize(resumed_sum[0]), normalize(full_sum[0]))
            << "workers " << workers;
    }
}

// ---- NSGA-II ----------------------------------------------------------------

TEST(LineageNsga2, BirthsCoverBroodAndWinnersAreTheFront)
{
    const ParameterSpace space = toy_space();
    MultiObjectiveConfig cfg;
    cfg.generations = 10;
    cfg.seed = 2015;
    auto sink = std::make_shared<MemorySink>();
    cfg.obs.tracer = Tracer{sink};
    cfg.obs.lineage = std::make_shared<obs::LineageTracker>();
    const MultiEvalFn eval =
        [](const Genome& g) -> std::optional<std::vector<double>> {
        return std::vector<double>{static_cast<double>(g.gene(0) + g.gene(1)),
                                   static_cast<double>(g.gene(2) + g.gene(3))};
    };
    const Nsga2Engine engine{space,
                             cfg,
                             {Direction::maximize, Direction::minimize},
                             eval,
                             HintSet::none(space)};
    const auto result = engine.run();

    const auto summaries = sink->events_of("lineage_summary");
    ASSERT_EQ(summaries.size(), 1u);
    const TraceEvent& s = summaries[0];
    EXPECT_EQ(s.string("engine").value_or(""), "nsga2");
    EXPECT_EQ(s.unsigned_int("winner_count").value_or(0), result.front.size());

    // births == roots + sum of per-generation brood sizes, and the birth id
    // stream is dense.
    std::uint64_t born = 0;
    for (const TraceEvent& ev : sink->events_of("generation"))
        born += ev.unsigned_int("born").value_or(0);
    const std::uint64_t roots = s.unsigned_int("roots").value_or(0);
    EXPECT_EQ(s.unsigned_int("births").value_or(0), roots + born);
    std::uint64_t expected_id = 0;
    for (const TraceEvent& ev : sink->events_of("birth"))
        EXPECT_EQ(ev.unsigned_int("id").value_or(~0ull), expected_id++);
    EXPECT_EQ(expected_id, roots + born);

    EXPECT_EQ(cfg.obs.lineage->counters().births, roots + born);
}

// ---- local search -----------------------------------------------------------

TEST(LineageLocalSearch, ChainsRecordWinners)
{
    const ParameterSpace space = toy_space();

    AnnealingConfig sa_cfg;
    sa_cfg.max_distinct_evals = 100;
    auto sa_sink = std::make_shared<MemorySink>();
    sa_cfg.obs.tracer = Tracer{sa_sink};
    SimulatedAnnealing{space, sa_cfg, Direction::maximize, sum_eval,
                       HintSet::none(space)}
        .run(7);
    const auto sa_sum = sa_sink->events_of("lineage_summary");
    ASSERT_EQ(sa_sum.size(), 1u);
    EXPECT_EQ(sa_sum[0].string("engine").value_or(""), "sa");
    EXPECT_GT(sa_sum[0].unsigned_int("births").value_or(0), 0u);
    EXPECT_EQ(sa_sum[0].unsigned_int("winner_count").value_or(0), 1u);
    EXPECT_GT(sa_sum[0].unsigned_int("survived").value_or(0), 0u);

    HillClimbConfig hc_cfg;
    hc_cfg.max_distinct_evals = 100;
    auto hc_sink = std::make_shared<MemorySink>();
    hc_cfg.obs.tracer = Tracer{hc_sink};
    HillClimber{space, hc_cfg, Direction::maximize, sum_eval, HintSet::none(space)}
        .run(7);
    const auto hc_sum = hc_sink->events_of("lineage_summary");
    ASSERT_EQ(hc_sum.size(), 1u);
    EXPECT_EQ(hc_sum[0].string("engine").value_or(""), "hc");
    EXPECT_GT(hc_sum[0].unsigned_int("births").value_or(0), 0u);
    EXPECT_EQ(hc_sum[0].unsigned_int("winner_count").value_or(0), 1u);
}

// ---- acceptance: attribution separates guided from unguided search ----------

obs::LineageSummary router_run_summary(GuidanceLevel level)
{
    noc::RouterGenerator generator;
    const ip::Metric metric = ip::Metric::freq_mhz;
    GaConfig cfg;
    cfg.generations = 20;
    cfg.seed = 2015;
    cfg.obs.lineage = std::make_shared<obs::LineageTracker>();
    const HintSet hints =
        level == GuidanceLevel::none
            ? HintSet::none(generator.space())
            : apply_guidance(generator.author_hints(metric), Direction::maximize,
                             level);
    const GaEngine engine{generator.space(), cfg, Direction::maximize,
                          generator.metric_eval(metric), hints};
    engine.run();
    const obs::LineageCounters counters = cfg.obs.lineage->counters();
    EXPECT_TRUE(counters.have_last);
    return counters.last;
}

// The paper's claim, made checkable per-run: with strong hints the winning
// genome's mutated genes trace back to bias/target draws; without hints every
// mutated gene is a uniform draw.
TEST(LineageAcceptance, GuidedRunsAttributeWinnerGenesToHints)
{
    const obs::LineageSummary guided = router_run_summary(GuidanceLevel::strong);
    const obs::LineageSummary unguided = router_run_summary(GuidanceLevel::none);

    EXPECT_GT(guided.offspring_bias + guided.offspring_target, 0u);
    EXPECT_EQ(unguided.offspring_bias + unguided.offspring_target, 0u);
    EXPECT_EQ(unguided.genes_bias + unguided.genes_target, 0u);

    ASSERT_TRUE(guided.have_winner);
    ASSERT_TRUE(unguided.have_winner);
    const auto hint_share = [](const obs::LineageSummary& s) {
        const std::uint64_t mutated =
            s.winner_bias + s.winner_target + s.winner_uniform;
        return mutated == 0
                   ? 0.0
                   : static_cast<double>(s.winner_bias + s.winner_target) /
                         static_cast<double>(mutated);
    };
    EXPECT_GT(guided.winner_bias + guided.winner_target, 0u);
    EXPECT_GT(hint_share(guided), hint_share(unguided));
    EXPECT_EQ(unguided.winner_bias + unguided.winner_target, 0u);
}

}  // namespace
}  // namespace nautilus
