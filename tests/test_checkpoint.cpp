#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include "core/atomic_file.hpp"

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/nsga2.hpp"
#include "obs/trace.hpp"

namespace nautilus {
namespace {

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

std::string temp_path(const std::string& name)
{
    return ::testing::TempDir() + "nautilus_" + name + ".ckpt";
}

std::string slurp(const std::string& path)
{
    std::ifstream in{path};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void spit(const std::string& path, const std::string& text)
{
    std::ofstream out{path, std::ios::trunc};
    out << text;
}

GaCheckpoint sample_ga_checkpoint()
{
    GaCheckpoint cp;
    cp.config_hash = 0xdeadbeefcafef00dull;
    cp.seed = 42;
    cp.generation = 37;
    cp.rng_state = {1u, 2u, 3u, 4u};
    cp.population = {Genome{std::vector<std::uint32_t>{0, 1, 2, 3}},
                     Genome{std::vector<std::uint32_t>{7, 6, 5, 4}}};
    cp.history.push_back({36, 0.1, 1.0 / 3.0, -0.25, 9, 5e-324, 123});
    cp.curve.push_back({10, 0.1});
    cp.curve.push_back({20, 0.30000000000000004});  // exact-bits round-trip probe
    cp.have_best = true;
    cp.best_genome = Genome{std::vector<std::uint32_t>{7, 7, 7, 7}};
    cp.best_eval = {true, 28.0};
    cp.best_so_far = 28.0;
    cp.stall = 3;
    cp.cache = {{Genome{std::vector<std::uint32_t>{0, 0, 0, 0}}, Evaluation{false, -1.5}},
                {Genome{std::vector<std::uint32_t>{1, 2, 3, 4}}, Evaluation{true, 10.0}}};
    cp.distinct = 2;
    cp.calls = 17;
    cp.quarantine = {0x1234u, 0x5678u};
    cp.fault.attempts = 21;
    cp.fault.retries = 4;
    cp.fault.failures = 5;
    cp.fault.timeouts = 1;
    cp.fault.quarantined = 2;
    cp.fault.penalties = 6;
    return cp;
}

TEST(Checkpoint, GaRoundTripIsExact)
{
    const std::string path = temp_path("ga_roundtrip");
    const GaCheckpoint cp = sample_ga_checkpoint();
    save_checkpoint(path, cp);
    EXPECT_EQ(checkpoint_engine(path), "ga");

    const GaCheckpoint r = load_ga_checkpoint(path);
    EXPECT_EQ(r.config_hash, cp.config_hash);
    EXPECT_EQ(r.seed, cp.seed);
    EXPECT_EQ(r.generation, cp.generation);
    EXPECT_EQ(r.rng_state, cp.rng_state);
    ASSERT_EQ(r.population.size(), cp.population.size());
    for (std::size_t i = 0; i < cp.population.size(); ++i)
        EXPECT_EQ(r.population[i].genes(), cp.population[i].genes());
    ASSERT_EQ(r.history.size(), 1u);
    EXPECT_EQ(r.history[0].generation, 36u);
    // Doubles are stored as IEEE-754 bit patterns: == must hold exactly,
    // including the denormal.
    EXPECT_EQ(r.history[0].best, 0.1);
    EXPECT_EQ(r.history[0].mean, 1.0 / 3.0);
    EXPECT_EQ(r.history[0].worst, -0.25);
    EXPECT_EQ(r.history[0].best_so_far, 5e-324);
    ASSERT_EQ(r.curve.size(), 2u);
    EXPECT_EQ(r.curve[1].best, 0.30000000000000004);
    EXPECT_TRUE(r.have_best);
    EXPECT_EQ(r.best_genome.genes(), cp.best_genome.genes());
    EXPECT_EQ(r.best_eval.feasible, cp.best_eval.feasible);
    EXPECT_EQ(r.best_eval.value, cp.best_eval.value);
    EXPECT_EQ(r.stall, cp.stall);
    ASSERT_EQ(r.cache.size(), cp.cache.size());
    for (std::size_t i = 0; i < cp.cache.size(); ++i) {
        EXPECT_EQ(r.cache[i].first.genes(), cp.cache[i].first.genes());
        EXPECT_EQ(r.cache[i].second.feasible, cp.cache[i].second.feasible);
        EXPECT_EQ(r.cache[i].second.value, cp.cache[i].second.value);
    }
    EXPECT_EQ(r.distinct, cp.distinct);
    EXPECT_EQ(r.calls, cp.calls);
    EXPECT_EQ(r.quarantine, cp.quarantine);
    EXPECT_EQ(r.fault, cp.fault);
    std::remove(path.c_str());
}

TEST(Checkpoint, Nsga2RoundTripIsExact)
{
    const std::string path = temp_path("nsga2_roundtrip");
    Nsga2Checkpoint cp;
    cp.config_hash = 0xfeedface;
    cp.seed = 7;
    cp.generation = 11;
    cp.objectives = 2;
    cp.rng_state = {9u, 8u, 7u, 6u};
    cp.population = {Genome{std::vector<std::uint32_t>{1, 1, 1, 1}}};
    cp.population_values = {{3.5, -0.125}};
    cp.archive = {Genome{std::vector<std::uint32_t>{2, 2, 2, 2}}};
    cp.archive_values = {{8.0, 0.1}};
    cp.cache = {{Genome{std::vector<std::uint32_t>{0, 0, 0, 0}}, std::nullopt},
                {Genome{std::vector<std::uint32_t>{1, 1, 1, 1}},
                 std::vector<double>{3.5, -0.125}}};
    cp.distinct = 2;
    cp.calls = 4;
    cp.quarantine = {99u};
    cp.fault.attempts = 5;
    cp.fault.quarantined = 1;
    save_checkpoint(path, cp);
    EXPECT_EQ(checkpoint_engine(path), "nsga2");

    const Nsga2Checkpoint r = load_nsga2_checkpoint(path);
    EXPECT_EQ(r.config_hash, cp.config_hash);
    EXPECT_EQ(r.generation, cp.generation);
    EXPECT_EQ(r.objectives, 2u);
    EXPECT_EQ(r.rng_state, cp.rng_state);
    ASSERT_EQ(r.population.size(), 1u);
    EXPECT_EQ(r.population[0].genes(), cp.population[0].genes());
    EXPECT_EQ(r.population_values, cp.population_values);
    ASSERT_EQ(r.archive.size(), 1u);
    EXPECT_EQ(r.archive_values, cp.archive_values);
    ASSERT_EQ(r.cache.size(), 2u);
    EXPECT_FALSE(r.cache[0].second.has_value());
    ASSERT_TRUE(r.cache[1].second.has_value());
    EXPECT_EQ(*r.cache[1].second, (std::vector<double>{3.5, -0.125}));
    EXPECT_EQ(r.quarantine, cp.quarantine);
    EXPECT_EQ(r.fault, cp.fault);
    std::remove(path.c_str());
}

TEST(Checkpoint, LoaderRejectsMissingFileVersionAndEngineMismatch)
{
    EXPECT_THROW(load_ga_checkpoint(temp_path("does_not_exist")), std::runtime_error);

    const std::string path = temp_path("tampered");
    save_checkpoint(path, sample_ga_checkpoint());

    // Wrong engine: a GA file is not an NSGA-II checkpoint.
    EXPECT_THROW(load_nsga2_checkpoint(path), std::runtime_error);

    // Version bump: loaders must refuse formats they do not understand.
    const std::string original = slurp(path);
    std::string bumped = original;
    const std::string header =
        "nautilus-checkpoint " + std::to_string(k_checkpoint_version);
    const auto pos = bumped.find(header);
    ASSERT_NE(pos, std::string::npos);
    bumped.replace(pos, header.size(), "nautilus-checkpoint 999");
    spit(path, bumped);
    EXPECT_THROW(load_ga_checkpoint(path), std::runtime_error);

    // Truncation: a file missing its trailer is rejected, not half-loaded.
    spit(path, original.substr(0, original.size() / 2));
    EXPECT_THROW(load_ga_checkpoint(path), std::runtime_error);
    std::remove(path.c_str());
}

GaConfig golden_config(std::size_t workers)
{
    GaConfig cfg;
    cfg.generations = 80;
    cfg.seed = 1234;
    cfg.eval_workers = workers;
    cfg.stall_generations = 0;  // run the full schedule
    return cfg;
}

// The ISSUE's golden test: an 80-generation run killed at generation 37 and
// resumed must reproduce the uninterrupted run bit-for-bit -- best fitness,
// final population, RNG stream position, evaluation counts and per-generation
// history -- at 1 and at 4 evaluation workers.
TEST(CheckpointResume, GaResumeIsBitForBitIdenticalAtAnyWorkerCount)
{
    const auto space = toy_space();
    RunResult straight_w1;  // reference runs compared across worker counts too
    RunResult resumed_w1;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        const GaEngine straight_engine{space, golden_config(workers),
                                       Direction::maximize, sum_eval,
                                       HintSet::none(space)};
        const RunResult straight = straight_engine.run();
        EXPECT_FALSE(straight.halted);
        ASSERT_EQ(straight.history.size(), 80u);

        const std::string path =
            temp_path("ga_resume_w" + std::to_string(workers));
        GaConfig halting = golden_config(workers);
        halting.checkpoint_path = path;
        halting.halt_at_generation = 37;
        const GaEngine halting_engine{space, halting, Direction::maximize, sum_eval,
                                      HintSet::none(space)};
        const RunResult partial = halting_engine.run();
        EXPECT_TRUE(partial.halted);
        EXPECT_EQ(partial.history.size(), 37u);

        const RunResult resumed = straight_engine.resume(path);
        EXPECT_FALSE(resumed.halted);
        EXPECT_EQ(resumed.start_generation, 37u);

        // Identical outcome in every observable the engine exposes.
        EXPECT_EQ(resumed.best_genome.genes(), straight.best_genome.genes());
        EXPECT_EQ(resumed.best_eval.value, straight.best_eval.value);
        EXPECT_EQ(resumed.distinct_evals, straight.distinct_evals);
        EXPECT_EQ(resumed.total_eval_calls, straight.total_eval_calls);
        EXPECT_EQ(resumed.final_rng_state, straight.final_rng_state);
        ASSERT_EQ(resumed.final_population.size(), straight.final_population.size());
        for (std::size_t i = 0; i < straight.final_population.size(); ++i)
            EXPECT_EQ(resumed.final_population[i].genes(),
                      straight.final_population[i].genes());
        ASSERT_EQ(resumed.history.size(), straight.history.size());
        for (std::size_t g = 0; g < straight.history.size(); ++g) {
            EXPECT_EQ(resumed.history[g].generation, straight.history[g].generation);
            EXPECT_EQ(resumed.history[g].best, straight.history[g].best);
            EXPECT_EQ(resumed.history[g].mean, straight.history[g].mean);
            EXPECT_EQ(resumed.history[g].best_so_far, straight.history[g].best_so_far);
            EXPECT_EQ(resumed.history[g].distinct_evals,
                      straight.history[g].distinct_evals);
        }
        ASSERT_EQ(resumed.curve.points().size(), straight.curve.points().size());
        for (std::size_t i = 0; i < straight.curve.points().size(); ++i) {
            EXPECT_EQ(resumed.curve.points()[i].evals, straight.curve.points()[i].evals);
            EXPECT_EQ(resumed.curve.points()[i].best, straight.curve.points()[i].best);
        }

        if (workers == 1) {
            straight_w1 = straight;
            resumed_w1 = resumed;
        }
        else {
            // Worker count changes nothing: serial and 4-way runs agree.
            EXPECT_EQ(straight.final_rng_state, straight_w1.final_rng_state);
            EXPECT_EQ(straight.distinct_evals, straight_w1.distinct_evals);
            EXPECT_EQ(resumed.best_eval.value, resumed_w1.best_eval.value);
            EXPECT_EQ(resumed.final_rng_state, resumed_w1.final_rng_state);
        }
        std::remove(path.c_str());
    }
}

TEST(CheckpointResume, GaResumeAtDifferentWorkerCountStillMatches)
{
    // Checkpoint under 1 worker, resume under 4: the worker count is
    // deliberately outside the config fingerprint.
    const auto space = toy_space();
    const std::string path = temp_path("ga_cross_workers");
    GaConfig halting = golden_config(1);
    halting.checkpoint_path = path;
    halting.halt_at_generation = 37;
    const GaEngine halting_engine{space, halting, Direction::maximize, sum_eval,
                                  HintSet::none(space)};
    ASSERT_TRUE(halting_engine.run().halted);

    const GaEngine straight_engine{space, golden_config(1), Direction::maximize,
                                   sum_eval, HintSet::none(space)};
    const RunResult straight = straight_engine.run();
    const GaEngine wide_engine{space, golden_config(4), Direction::maximize, sum_eval,
                               HintSet::none(space)};
    const RunResult resumed = wide_engine.resume(path);
    EXPECT_EQ(resumed.best_eval.value, straight.best_eval.value);
    EXPECT_EQ(resumed.distinct_evals, straight.distinct_evals);
    EXPECT_EQ(resumed.final_rng_state, straight.final_rng_state);
    std::remove(path.c_str());
}

TEST(CheckpointResume, ResumeRejectsConfigFingerprintMismatch)
{
    const auto space = toy_space();
    const std::string path = temp_path("ga_fingerprint");
    GaConfig halting = golden_config(1);
    halting.checkpoint_path = path;
    halting.halt_at_generation = 10;
    const GaEngine halting_engine{space, halting, Direction::maximize, sum_eval,
                                  HintSet::none(space)};
    ASSERT_TRUE(halting_engine.run().halted);

    GaConfig different = golden_config(1);
    different.mutation_rate = 0.25;  // determinism-relevant change
    const GaEngine mismatched{space, different, Direction::maximize, sum_eval,
                              HintSet::none(space)};
    EXPECT_THROW(mismatched.resume(path), std::runtime_error);

    // The run's seed travels in the checkpoint, not the resuming engine's
    // config: resuming with a different config seed still continues the
    // checkpointed run (and still validates everything else).
    GaConfig reseeded = golden_config(1);
    reseeded.seed = 999;
    const GaEngine other_seed{space, reseeded, Direction::maximize, sum_eval,
                              HintSet::none(space)};
    const RunResult resumed = other_seed.resume(path);
    const GaEngine reference{space, golden_config(1), Direction::maximize, sum_eval,
                             HintSet::none(space)};
    const RunResult straight = reference.run();
    EXPECT_EQ(resumed.best_eval.value, straight.best_eval.value);
    EXPECT_EQ(resumed.final_rng_state, straight.final_rng_state);
    std::remove(path.c_str());
}

TEST(CheckpointResume, ResumeRejectsChangedHintsAtEqualConfidence)
{
    // Regression: config_fingerprint used to hash only hints.confidence(),
    // so a resume under *different per-parameter hints* (importance, bias,
    // target, step_scale) at the same confidence silently produced a run
    // that matched neither the original nor a fresh one.  The fingerprint
    // now covers the full HintSet.
    const auto space = toy_space();
    const std::string path = temp_path("ga_hint_fingerprint");

    const auto make_hints = [&](double importance, std::optional<double> bias) {
        HintSet hints = HintSet::none(space);
        hints.set_confidence(0.6);
        hints.param(0).importance = importance;
        hints.param(1).bias = bias;
        hints.validate(space);
        return hints;
    };
    const HintSet original = make_hints(30.0, 0.8);

    GaConfig halting = golden_config(1);
    halting.checkpoint_path = path;
    halting.halt_at_generation = 10;
    const GaEngine halting_engine{space, halting, Direction::maximize, sum_eval, original};
    ASSERT_TRUE(halting_engine.run().halted);

    // Same confidence, different importance: must be rejected.
    const GaEngine changed_importance{space, golden_config(1), Direction::maximize,
                                      sum_eval, make_hints(5.0, 0.8)};
    EXPECT_THROW(changed_importance.resume(path), std::runtime_error);

    // Same confidence, different bias: must be rejected.
    const GaEngine changed_bias{space, golden_config(1), Direction::maximize, sum_eval,
                                make_hints(30.0, -0.8)};
    EXPECT_THROW(changed_bias.resume(path), std::runtime_error);

    // Same confidence, bias dropped entirely: must be rejected.
    const GaEngine dropped_bias{space, golden_config(1), Direction::maximize, sum_eval,
                                make_hints(30.0, std::nullopt)};
    EXPECT_THROW(dropped_bias.resume(path), std::runtime_error);

    // Identical hints resume bit-for-bit.
    const GaEngine same{space, golden_config(1), Direction::maximize, sum_eval, original};
    const RunResult resumed = same.resume(path);
    const GaEngine reference{space, golden_config(1), Direction::maximize, sum_eval,
                             original};
    const RunResult straight = reference.run();
    EXPECT_EQ(resumed.best_eval.value, straight.best_eval.value);
    EXPECT_EQ(resumed.distinct_evals, straight.distinct_evals);
    EXPECT_EQ(resumed.final_rng_state, straight.final_rng_state);
    std::remove(path.c_str());
}

TEST(CheckpointResume, Nsga2ResumeIsBitForBitIdentical)
{
    const auto space = toy_space();
    const MultiEvalFn eval = [](const Genome& g) -> std::optional<std::vector<double>> {
        double sum = 0.0;
        double spread = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i) {
            sum += g.gene(i);
            spread += static_cast<double>(g.gene(i)) * static_cast<double>(i);
        }
        return std::vector<double>{sum, spread};
    };
    const std::vector<Direction> dirs{Direction::maximize, Direction::minimize};

    MultiObjectiveConfig base;
    base.generations = 30;
    base.seed = 77;
    const Nsga2Engine straight_engine{space, base, dirs, eval, HintSet::none(space)};
    const MultiObjectiveResult straight = straight_engine.run();
    EXPECT_FALSE(straight.halted);

    const std::string path = temp_path("nsga2_resume");
    MultiObjectiveConfig halting = base;
    halting.checkpoint_path = path;
    halting.halt_at_generation = 13;
    const Nsga2Engine halting_engine{space, halting, dirs, eval, HintSet::none(space)};
    const MultiObjectiveResult partial = halting_engine.run();
    EXPECT_TRUE(partial.halted);

    const MultiObjectiveResult resumed = straight_engine.resume(path);
    EXPECT_FALSE(resumed.halted);
    EXPECT_EQ(resumed.start_generation, 13u);
    EXPECT_EQ(resumed.distinct_evals, straight.distinct_evals);
    EXPECT_EQ(resumed.total_eval_calls, straight.total_eval_calls);
    ASSERT_EQ(resumed.front.size(), straight.front.size());
    for (std::size_t i = 0; i < straight.front.size(); ++i) {
        EXPECT_EQ(resumed.front[i].genome.genes(), straight.front[i].genome.genes());
        EXPECT_EQ(resumed.front[i].values, straight.front[i].values);
    }
    std::remove(path.c_str());
}

TEST(CheckpointResume, Nsga2ResumeRejectsWrongObjectiveCount)
{
    const auto space = toy_space();
    const MultiEvalFn two = [](const Genome& g) -> std::optional<std::vector<double>> {
        return std::vector<double>{static_cast<double>(g.gene(0)),
                                   static_cast<double>(g.gene(1))};
    };
    const std::string path = temp_path("nsga2_objectives");
    MultiObjectiveConfig halting;
    halting.generations = 20;
    halting.seed = 5;
    halting.checkpoint_path = path;
    halting.halt_at_generation = 7;
    const Nsga2Engine engine{space, halting,
                             {Direction::maximize, Direction::minimize}, two,
                             HintSet::none(space)};
    ASSERT_TRUE(engine.run().halted);

    const MultiEvalFn three = [](const Genome& g) -> std::optional<std::vector<double>> {
        return std::vector<double>{static_cast<double>(g.gene(0)),
                                   static_cast<double>(g.gene(1)), 0.0};
    };
    MultiObjectiveConfig plain;
    plain.generations = 20;
    plain.seed = 5;
    const Nsga2Engine mismatched{
        space, plain,
        {Direction::maximize, Direction::minimize, Direction::minimize}, three,
        HintSet::none(space)};
    EXPECT_THROW(mismatched.resume(path), std::runtime_error);
    std::remove(path.c_str());
}

// -- resume validates restored state against the run -----------------------

// Rewrites member `index` of `section` (the lines after its "<section> N"
// header) by handing its tokens to `edit`.
template <typename Edit>
void tamper(const std::string& path, const std::string& section, std::size_t index, Edit edit)
{
    std::istringstream in{slurp(path)};
    std::string out;
    std::string line;
    std::size_t target = std::string::npos;
    for (std::size_t n = 0; std::getline(in, line); ++n) {
        if (target == std::string::npos && line.rfind(section + " ", 0) == 0)
            target = n + 1 + index;
        if (n == target) {
            std::istringstream words{line};
            std::vector<std::string> tokens;
            for (std::string w; words >> w;) tokens.push_back(w);
            edit(tokens);
            line.clear();
            for (const std::string& t : tokens) line += (line.empty() ? "" : " ") + t;
        }
        out += line + '\n';
    }
    ASSERT_NE(target, std::string::npos) << "no section " << section;
    spit(path, out);
}

// Member tokens are "<genes> g... [<values> v...]": drop the last gene.
void drop_gene(std::vector<std::string>& t)
{
    const std::size_t genes = std::stoul(t[0]);
    t.erase(t.begin() + static_cast<std::ptrdiff_t>(genes));
    t[0] = std::to_string(genes - 1);
}

// Gene 0 beyond every toy_space domain.
void widen_gene(std::vector<std::string>& t)
{
    t[1] = "99";
}

// Drop the last objective of a population/archive member's values.
void drop_objective(std::vector<std::string>& t)
{
    const std::size_t at = 1 + std::stoul(t[0]);  // the value count
    t[at] = std::to_string(std::stoul(t[at]) - 1);
    t.pop_back();
}

// `resume` must throw a std::runtime_error naming every one of `parts`
// before any generation runs (`sink` saw no event).
template <typename Resume>
void expect_rejected(Resume resume, const obs::MemorySink& sink,
                     const std::vector<std::string>& parts)
{
    try {
        resume();
        ADD_FAILURE() << "resume accepted a tampered checkpoint";
    }
    catch (const std::runtime_error& e) {
        for (const std::string& part : parts)
            EXPECT_NE(std::string{e.what()}.find(part), std::string::npos)
                << "'" << part << "' missing from: " << e.what();
    }
    EXPECT_EQ(sink.size(), 0u);
}

TEST(CheckpointResume, GaResumeRejectsGenomesThatDoNotFitTheSpace)
{
    const auto space = toy_space();
    const std::string path = temp_path("ga_tampered");
    GaConfig halting = golden_config(1);
    halting.checkpoint_path = path;
    halting.halt_at_generation = 10;
    ASSERT_TRUE(GaEngine(space, halting, Direction::maximize, sum_eval, HintSet::none(space))
                    .run()
                    .halted);
    const std::string original = slurp(path);

    auto sink = std::make_shared<obs::MemorySink>();
    GaConfig traced = golden_config(1);
    traced.obs.tracer = obs::Tracer{sink};
    const GaEngine engine{space, traced, Direction::maximize, sum_eval, HintSet::none(space)};
    const auto resume = [&] { engine.resume(path); };

    tamper(path, "population", 3, drop_gene);
    expect_rejected(resume, *sink, {path, "population genome 3", "does not fit the space"});
    spit(path, original);
    tamper(path, "cache", 5, widen_gene);
    expect_rejected(resume, *sink, {path, "cache genome 5", "does not fit the space"});
    spit(path, original);
    EXPECT_NO_THROW(resume());  // the untampered file still resumes
    std::remove(path.c_str());
}

TEST(CheckpointResume, Nsga2ResumeRejectsGenomesAndValuesThatDoNotFitTheRun)
{
    const auto space = toy_space();
    const MultiEvalFn eval = [](const Genome& g) -> std::optional<std::vector<double>> {
        if (g.gene(0) == 0) return std::nullopt;
        return std::vector<double>{static_cast<double>(g.gene(0) + g.gene(1)),
                                   static_cast<double>(g.gene(2) * g.gene(3))};
    };
    const std::vector<Direction> dirs{Direction::maximize, Direction::minimize};
    const std::string path = temp_path("nsga2_tampered");
    MultiObjectiveConfig halting;
    halting.generations = 20;
    halting.seed = 5;
    halting.checkpoint_path = path;
    halting.halt_at_generation = 8;
    ASSERT_TRUE(Nsga2Engine(space, halting, dirs, eval, HintSet::none(space)).run().halted);
    const std::string original = slurp(path);

    auto sink = std::make_shared<obs::MemorySink>();
    MultiObjectiveConfig traced;
    traced.generations = 20;
    traced.seed = 5;
    traced.obs.tracer = obs::Tracer{sink};
    const Nsga2Engine engine{space, traced, dirs, eval, HintSet::none(space)};
    const auto resume = [&] { engine.resume(path); };

    tamper(path, "population", 2, drop_gene);
    expect_rejected(resume, *sink, {path, "population genome 2", "does not fit the space"});
    spit(path, original);
    tamper(path, "archive", 4, widen_gene);
    expect_rejected(resume, *sink, {path, "archive genome 4", "does not fit the space"});
    spit(path, original);
    tamper(path, "population", 1, drop_objective);
    expect_rejected(resume, *sink, {path, "population value 1 has 1 objectives, expected 2"});
    spit(path, original);
    tamper(path, "archive", 0, drop_objective);
    expect_rejected(resume, *sink, {path, "archive value 0 has 1 objectives, expected 2"});
    spit(path, original);

    // A feasible cache entry reads "<genes> g... 1 <values> v...".
    const Nsga2Checkpoint cp = load_nsga2_checkpoint(path);
    std::size_t feasible = 0;
    while (!cp.cache[feasible].second) ++feasible;
    tamper(path, "cache", feasible, [](std::vector<std::string>& t) {
        const std::size_t at = 2 + std::stoul(t[0]);
        t[at] = "3";
        t.push_back("0");
    });
    expect_rejected(resume, *sink,
                    {path, "cache value " + std::to_string(feasible) +
                               " has 3 objectives, expected 2"});
    spit(path, original);
    EXPECT_NO_THROW(resume());  // the untampered file still resumes
    std::remove(path.c_str());
}

// -- atomic_write_file (the checkpoint commit path) -------------------------

TEST(AtomicFile, WritesContentAndLeavesNoTempBehind)
{
    const std::string path = temp_path("atomic_write");
    atomic_write_file(path, "hello\nworld\n");
    EXPECT_EQ(slurp(path), "hello\nworld\n");
    EXPECT_FALSE(std::ifstream{path + ".tmp"}.good());

    // Overwrite replaces the full content, never appends or truncates short.
    atomic_write_file(path, "v2");
    EXPECT_EQ(slurp(path), "v2");
    std::remove(path.c_str());
}

TEST(AtomicFile, FailsLoudlyWhenDirectoryIsMissing)
{
    EXPECT_THROW(
        atomic_write_file(::testing::TempDir() + "no_such_dir_xyz/file", "x"),
        std::runtime_error);
}

TEST(AtomicFile, AppendReturnsResultingSize)
{
    const std::string path = temp_path("atomic_append");
    std::remove(path.c_str());
    EXPECT_EQ(append_file(path, "abc\n"), 4u);
    EXPECT_EQ(append_file(path, "defgh\n"), 10u);
    EXPECT_EQ(slurp(path), "abc\ndefgh\n");
    std::remove(path.c_str());
}

}  // namespace
}  // namespace nautilus
