// The paper's search figures (Figs. 3-7) and the ablations, as rows of one
// table.
//
// Usage: bench_paper [ROW...]      (no ROW runs every row)
//
// A row is a query on one IP: its engine variants, quality thresholds
// relative to the dataset optimum, the paper's reported numbers and the
// claims the row asserts.  Each row prints its report at the paper's seed.
// A row with claims then replays itself at the claim seeds -- five
// consecutive base seeds starting at the paper's, fixed before any claim was
// measured -- and judges each claim on the pooled runs with a percentile
// bootstrap: a claim holds when its whole 95% CI clears its floor.
//
// The last stdout line is a JSON record of every row run.  Exit status: 0
// when every claim holds, 1 when one fails, 2 on an unknown row name.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/hint_estimator.hpp"
#include "core/random_search.hpp"
#include "exp/experiment.hpp"
#include "fft/fft_generator.hpp"
#include "ip/metrics.hpp"
#include "noc/router_generator.hpp"
#include "obs/format.hpp"
#include "obs/json.hpp"

using namespace nautilus;
using exp::EngineKind;
using ip::Metric;

namespace {

constexpr std::size_t k_claim_seeds = 5;
constexpr std::size_t k_resamples = 2000;
constexpr std::uint64_t k_bootstrap_seed = 0xb0075712a9ull;

// Where an engine variant's hints come from.  All but `author` and
// `estimated` keep some hint classes of the author hints and drop the rest.
enum class Hints { author, importance, importance_decay, bias, one_bias, two_bias, inverted,
                   estimated };

// The hints replacing the query's author hints (objective orientation, like
// query_hints()); nullopt keeps the author hints.
std::optional<HintSet> make_hints(Hints source, const ip::IpGenerator& gen, const exp::Query& q)
{
    HintSet author = exp::query_hints(gen, q);
    switch (source) {
    case Hints::author: return std::nullopt;
    case Hints::inverted: return author.negated_bias();  // every bias points uphill
    case Hints::estimated: {
        // The paper's NoC methodology: a non-expert estimates hints from 80
        // synthesized samples (<0.3% of the space).
        const HintSet e = HintEstimator{}.estimate(gen.space(), gen.metric_eval(q.metric));
        return q.direction == Direction::minimize ? e.negated_bias() : e;
    }
    default: break;
    }
    for (std::size_t i = 0; i < author.size(); ++i) {
        const ParamHints original = author.param(i);
        ParamHints& h = author.param(i) = ParamHints{};
        // Fig. 3: "decreasing streaming width (and data width) decreases LUTs".
        const bool streaming = i == fft::fft_gene::streaming_width;
        if ((source == Hints::one_bias && !streaming) ||
            (source == Hints::two_bias && !streaming && i != fft::fft_gene::data_width))
            continue;
        if (source == Hints::importance || source == Hints::importance_decay)
            h.importance = original.importance;
        if (source == Hints::importance_decay) h.importance_decay = original.importance_decay;
        if (source == Hints::bias || source == Hints::one_bias || source == Hints::two_bias)
            h.bias = original.bias;
    }
    return author;
}

struct Variant {
    exp::EngineSpec spec;  // hints_override is filled from `hints`
    Hints hints = Hints::author;
    std::size_t population = 10;
    double mutation_rate = 0.1;
    std::size_t base = 0;  // the variant its per-run speedup is measured against
};

// Per-run statistics a claim compares.  evals_to_target counts a run that
// never reaches the target at its final distinct-eval total (right-censored).
enum class Stat { evals_to_target, reached, distinct_evals, final_best, identical_runs };

// "a beats b": the ratio of their mean per-run `stat`, oriented so that a
// value above 1 favours a, has its whole bootstrap CI at or above `floor`.
// identical_runs: a and b produce the same runs, point for point.
struct Claim {
    const char* text;  // what is asserted, next to the paper's number
    Stat stat;
    const char* a;
    const char* b;
    std::size_t threshold = 0;  // index into Row::thresholds
    double floor = 1.0;         // the low end of the multi-seed CI, rounded down to 0.05
};

enum class Ip { router, fft };
enum class Report { table, curves, generations };

struct Row {
    const char* name;
    const char* title;
    Ip ip;
    exp::Query query;
    std::size_t runs;
    std::size_t generations;
    std::uint64_t seed;
    Report report;
    std::vector<Variant> variants;
    std::vector<double> thresholds;  // targets, as multiples of the dataset optimum
    const char* paper;
    std::vector<Claim> claims;
};

Variant ga(std::string label, GuidanceLevel level, Hints hints = Hints::author)
{
    return {{std::move(label), level, {}, {}}, hints};
}
Variant custom(std::string label, double confidence, Hints hints = Hints::author)
{
    return {{std::move(label), GuidanceLevel::custom, {}, confidence}, hints};
}
Variant budgeted(std::string label, EngineKind kind, GuidanceLevel level = GuidanceLevel::none)
{
    return {{std::move(label), level, {}, {}, kind, 400}};
}

std::vector<Row> paper_rows()
{
    using exp::Query;
    const Query min_luts = Query::simple("min-luts", Metric::area_luts, Direction::minimize);
    const Query fft_luts =
        Query::simple("FFT: Minimize # LUTs", Metric::area_luts, Direction::minimize);
    const GuidanceLevel none = GuidanceLevel::none;
    const GuidanceLevel weak = GuidanceLevel::weak;
    const GuidanceLevel strong = GuidanceLevel::strong;
    const std::vector<Variant> trio{ga("baseline", none), ga("nautilus-weak", weak),
                                    ga("nautilus-strong", strong)};

    std::vector<Row> rows;
    rows.push_back(
        {"fig3", "Figure 3: Baseline GA vs Nautilus with 'bias' hints (FFT)", Ip::fft, fft_luts,
         20, 80, 20, Report::generations,
         {ga("baseline", none), custom("nautilus-1-bias", 0.8, Hints::one_bias),
          custom("nautilus-2-bias", 0.8, Hints::two_bias)},
         {100.0 / 95.0, 100.0 / 99.0},
         "baseline converges to a top-1% solution at generation ~56;\n"
         "Nautilus with only bias hints within 15-23 generations.",
         {}});
    rows.push_back(
        {"fig4", "Figure 4: NoC, maximize frequency", Ip::router,
         Query::simple("NoC: Maximize Frequency", Metric::freq_mhz, Direction::maximize), 40,
         80, 2015, Report::curves,
         {ga("baseline", none), ga("nautilus-weak", weak, Hints::estimated),
          ga("nautilus-strong", strong, Hints::estimated)},
         {0.99, 0.95},
         "baseline needs ~2.8x (vs strong) and ~1.8x (vs weak) the synthesis\n"
         "jobs to converge within 1% of the best solution.",
         {}});
    rows.push_back(
        {"fig5", "Figure 5: NoC, minimize area-delay product (20 generations)", Ip::router,
         Query::simple("NoC: Minimize Area-Delay Product", Metric::area_delay_product,
                       Direction::minimize),
         40, 20, 2015, Report::curves,
         {ga("baseline", none), ga("nautilus", strong, Hints::estimated)},
         {1.15, 1.30},
         "Nautilus achieves similar quality with about half the synthesis\n"
         "runs required by the baseline within the first 20 generations.",
         {}});

    std::vector<Variant> fig6 = trio;
    fig6.push_back({{"random", none, {}, {}, EngineKind::random, 800}});
    rows.push_back(
        {"fig6", "Figure 6: FFT, minimize # LUTs (expert-guided)", Ip::fft, fft_luts, 40, 80,
         2015, Report::curves, fig6,
         {1.02, 2.0, 1.10},  // 1.10: the dataset's top 0.1%
         "all methods converge to ~540 LUTs; strong Nautilus 101 vs baseline 463\n"
         "evals to the optimum; 23.6 vs 78.9 evals to 2x optimum; random ~11,921.",
         {{"strong reaches +2% in more runs than baseline (paper: all converge)", Stat::reached,
           "nautilus-strong", "baseline", 0, 1.30},
          {"strong synthesizes fewer designs per run than baseline", Stat::distinct_evals,
           "nautilus-strong", "baseline", 0, 1.15},
          {"weak synthesizes fewer designs per run than baseline", Stat::distinct_evals,
           "nautilus-weak", "baseline", 0, 1.05},
          {"the GA reaches the top 0.1% in far fewer evals than random (paper: ~11,921)",
           Stat::evals_to_target, "baseline", "random", 2, 4.75}}});
    rows.push_back(
        {"fig7", "Figure 7: FFT, maximize throughput per LUT (expert-guided)", Ip::fft,
         Query::simple("FFT: Maximize Throughput per LUT", Metric::throughput_per_lut,
                       Direction::maximize),
         40, 80, 2015, Report::curves, trio,
         {0.85, 0.92},  // the paper's 1.45 and 1.5 levels against its ~1.7 peak
         "strong Nautilus reaches 1.45 MSPS/LUT in 61.6 evals vs baseline\n"
         "501.4 (>8x); only Nautilus ever exceeds 1.5 MSPS/LUT.",
         {{"strong reaches 85% of peak in fewer evals than baseline (paper: 8.1x)",
           Stat::evals_to_target, "nautilus-strong", "baseline", 0, 1.45},
          {"weak reaches 85% of peak in fewer evals than baseline (paper: between)",
           Stat::evals_to_target, "nautilus-weak", "baseline", 0, 1.25},
          {"strong reaches 92% of peak in fewer evals than baseline (paper: only it does)",
           Stat::evals_to_target, "nautilus-strong", "baseline", 1, 1.30},
          {"weak reaches 92% of peak in fewer evals than baseline", Stat::evals_to_target,
           "nautilus-weak", "baseline", 1, 1.10}}});
    rows.push_back(
        {"hint_classes", "Ablation: hint classes in isolation (FFT, minimize LUTs)", Ip::fft,
         min_luts, 30, 80, 2015, Report::table,
         {ga("baseline", none), ga("importance-only", strong, Hints::importance),
          ga("imp+decay", strong, Hints::importance_decay),
          ga("bias-only", strong, Hints::bias), ga("all-hints", strong)},
         {1.05, 1.5}, "the hint classes are only evaluated combined.",
         {{"bias-only hints reach +5% in fewer evals than baseline", Stat::evals_to_target,
           "bias-only", "baseline", 0, 1.35},
          {"all hints reach +5% in fewer evals than baseline", Stat::evals_to_target,
           "all-hints", "baseline", 0, 1.50}}});

    std::vector<Variant> sweep{ga("baseline", none)};
    for (double conf : {0.0, 0.2, 0.45, 0.6, 0.8, 0.95, 1.0}) {
        char label[32];
        std::snprintf(label, sizeof label, "conf=%.2f", conf);
        sweep.push_back(custom(label, conf));
    }
    rows.push_back(
        {"confidence", "Ablation: confidence sweep (FFT, minimize LUTs)", Ip::fft, min_luts, 30,
         80, 2015, Report::table, sweep, {1.05},
         "confidence 0 is the baseline; 1 must never freeze the search (footnote 1).",
         {{"confidence 0 reproduces the baseline exactly", Stat::identical_runs, "conf=0.00",
           "baseline"}}});

    std::vector<Variant> knobs;
    for (std::size_t pop : {6u, 10u, 20u}) {
        for (double rate : {0.05, 0.1, 0.2}) {
            char label[32];
            std::snprintf(label, sizeof label, "p%zu r%.2f", pop, rate);
            for (const GuidanceLevel level : {none, strong}) {
                Variant v = ga(label + std::string(level == none ? " base" : " strong"), level);
                v.population = pop;
                v.mutation_rate = rate;
                v.base = knobs.size() - (level == none ? 0 : 1);
                knobs.push_back(std::move(v));
            }
        }
    }
    rows.push_back({"ga_knobs", "Ablation: GA knob sensitivity (FFT, minimize LUTs)", Ip::fft,
                    min_luts, 20, 80, 2015, Report::table, knobs, {1.10},
                    "population 10 and per-gene mutation rate 0.1 (section 4.1).", {}});
    rows.push_back(
        {"wrong_hints", "Ablation: inverted (wrong) hints (FFT, minimize LUTs)", Ip::fft,
         min_luts, 30, 80, 2015, Report::table,
         {ga("baseline", none), ga("correct-weak", weak), ga("correct-strong", strong),
          ga("wrong-weak", weak, Hints::inverted), ga("wrong-strong", strong, Hints::inverted)},
         {1.10}, "hints are imperfect by design (section 1).",
         {{"inverted strong hints end within 1/0.95 of the baseline's final LUTs",
           Stat::final_best, "wrong-strong", "baseline", 0, 0.95}}});
    rows.push_back(
        {"search_strategies", "Ablation: search strategies (FFT, minimize LUTs, equal budgets)",
         Ip::fft, min_luts, 30, 80, 2015, Report::table,
         {ga("ga-baseline", none), ga("ga+hints", strong),
          budgeted("random", EngineKind::random), budgeted("hill-climb", EngineKind::hill_climb),
          budgeted("hill-climb+hints", EngineKind::hill_climb, strong),
          budgeted("sim-anneal", EngineKind::anneal),
          budgeted("sim-anneal+hints", EngineKind::anneal, strong)},
         {1.05, 1.5}, "GAs sit among stochastic DSE methods (annealing, Monte Carlo).",
         {}});
    return rows;
}

struct Space {
    std::unique_ptr<ip::IpGenerator> gen;
    ip::Dataset ds;
    double optimum = 0.0;
};

// One Experiment per variant, so each can carry its own GA knobs; engines
// run independently, so the merged result equals one multi-engine run.
exp::ExperimentResult run_row(const Row& row, const Space& space,
                              const std::vector<exp::EngineSpec>& specs, std::uint64_t seed)
{
    exp::ExperimentResult merged;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        exp::ExperimentConfig cfg;
        cfg.runs = row.runs;
        cfg.ga.generations = row.generations;
        cfg.ga.seed = seed;
        cfg.ga.population_size = row.variants[i].population;
        cfg.ga.mutation_rate = row.variants[i].mutation_rate;
        exp::Experiment e{*space.gen, row.query, cfg};
        e.use_dataset(space.ds);
        e.add_engine(specs[i]);
        exp::ExperimentResult r = e.run();
        merged.query = r.query;
        merged.config = r.config;
        merged.engines.push_back(std::move(r.engines.front()));
    }
    return merged;
}

// --- Statistics --------------------------------------------------------------

struct Interval {
    double value, lo, hi;
};

double mean(const std::vector<double>& v)
{
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// Percentile bootstrap (95%) of f(mean(a), mean(b)), resampling a and b
// independently from a fixed seed, so every report is reproducible.
template <typename F>
Interval bootstrap(const std::vector<double>& a, const std::vector<double>& b, F f)
{
    Rng rng{k_bootstrap_seed};
    auto resampled_mean = [&rng](const std::vector<double>& v) {
        double sum = 0.0;
        for (std::size_t i = 0; i < v.size(); ++i) sum += v[rng.index(v.size())];
        return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    std::vector<double> stats(k_resamples);
    for (double& s : stats) {
        const double ma = resampled_mean(a);
        s = f(ma, resampled_mean(b));
    }
    std::sort(stats.begin(), stats.end());
    return {f(mean(a), mean(b)), stats[k_resamples / 40], stats[k_resamples * 39 / 40 - 1]};
}

Interval bootstrap_mean(const std::vector<double>& v)
{
    return bootstrap(v, {}, [](double m, double) { return m; });
}

// Per-run values of `stat` for one engine, over every result given.
// identical_runs flattens each run: its distinct evals, then its curve.
std::vector<double> samples(const std::vector<const exp::EngineResult*>& results, Stat stat,
                            double target)
{
    std::vector<double> out;
    for (const exp::EngineResult* e : results) {
        for (std::size_t i = 0; i < e->curve.runs(); ++i) {
            const Curve& run = e->curve.run(i);
            const std::optional<double> hit = run.evals_to_reach(target);
            const auto evals = static_cast<double>(e->run_evals[i]);
            if (stat == Stat::evals_to_target) out.push_back(hit.value_or(evals));
            if (stat == Stat::reached) out.push_back(hit ? 1.0 : 0.0);
            if (stat == Stat::distinct_evals || stat == Stat::identical_runs) out.push_back(evals);
            if (stat == Stat::final_best) out.push_back(run.final_best());
            if (stat == Stat::identical_runs) {
                for (const CurvePoint& p : run.points()) {
                    out.push_back(p.evals);
                    out.push_back(p.best);
                }
            }
        }
    }
    return out;
}

// --- Report ------------------------------------------------------------------

// Fig. 3's view: the design-solution score (100 = the optimum) of the
// best-so-far design after each generation, averaged over runs.
void print_generations(const Row& row, const Space& space, const exp::ExperimentResult& r)
{
    auto score = [&](double v) {
        return 100.0 * (row.query.direction == Direction::minimize ? space.optimum / v
                                                                   : v / space.optimum);
    };
    std::vector<exp::LabeledSeries> series;
    for (const auto& e : r.engines) {
        exp::LabeledSeries& s = series.emplace_back(exp::LabeledSeries{e.spec.label, {}});
        for (std::size_t g = 0; g < row.generations; ++g) {
            double sum = 0.0;
            for (const auto& run : e.generation_best) sum += score(run.at(g));
            s.points.push_back({static_cast<double>(g), sum / static_cast<double>(row.runs)});
        }
    }
    std::printf("\n  [Design Solution Score (%%) of best-so-far, avg of %zu runs]\n  %-12s",
                row.runs, "generation");
    for (const auto& s : series) std::printf("%-18s", s.label.c_str());
    for (std::size_t g = 0; g < row.generations; g += 5) {
        std::printf("\n  %-12zu", g);
        for (const auto& s : series) std::printf("%-18.2f", s.points[g].best);
    }
    std::puts("\n");
    exp::print_ascii_chart(std::cout, "score (%) vs generation (x axis = generation #)",
                           series);
    for (double factor : row.thresholds) {
        const double level = score(space.optimum * factor);
        std::printf("\ngenerations to reach a score of %.0f%%:\n", level);
        for (const auto& s : series) {
            const auto hit = std::find_if(s.points.begin(), s.points.end(),
                                          [&](auto& p) { return p.best >= level; });
            if (hit == s.points.end())
                std::printf("  %-18s not within %zu generations\n", s.label.c_str(),
                            row.generations);
            else
                std::printf("  %-18s %.0f\n", s.label.c_str(), hit->evals);
        }
    }
}

void print_report(const Row& row, const Space& space, const exp::ExperimentResult& r,
                  const std::vector<exp::EngineSpec>& specs)
{
    const Metric metric = row.query.metric;
    const Direction dir = row.query.direction;
    const char* unit = ip::metric_unit(metric);
    std::printf("== %s ==\ndataset: %zu designs (%zu feasible), optimum %.4g %s\n", row.title,
                space.ds.size(), space.ds.feasible_count(), space.optimum, unit);
    std::printf("best design: %s\n\n",
                space.ds.best_entry(metric, dir).genome.to_string(space.gen->space()).c_str());
    for (std::size_t i = 0; i < row.variants.size(); ++i) {
        if (row.variants[i].hints != Hints::estimated) continue;
        std::puts("hints estimated from 80 random synthesized samples:");
        for (std::size_t p = 0; p < space.gen->space().size(); ++p) {
            const ParamHints& h = specs[i].hints_override->param(p);
            std::printf("  %-16s importance %5.1f  bias %s\n",
                        space.gen->space()[p].name.c_str(), h.importance,
                        h.bias ? std::to_string(*h.bias).c_str() : "   --");
        }
        std::puts("");
        break;
    }
    if (row.report == Report::curves) r.print(std::cout);
    if (row.report == Report::generations) print_generations(row, space, r);

    for (double factor : row.thresholds) {
        const double target = space.optimum * factor;
        char label[32];
        std::snprintf(label, sizeof label, "%.4gx the optimum", factor);
        std::puts("");
        r.print_convergence(std::cout, target, label);
        for (std::size_t i = 0; i < r.engines.size(); ++i) {
            const std::size_t base = row.variants[i].base;
            const auto s =
                speedup_at_threshold(r.engines[base].curve, r.engines[i].curve, target);
            if (base != i && s)
                std::printf("    per-run speedup %s vs %s: %.2fx\n",
                            r.engines[i].spec.label.c_str(),
                            r.engines[base].spec.label.c_str(), *s);
        }
        std::printf("    uniform random sampling needs %.0f draws on average (analytic)\n",
                    RandomSearch::expected_draws(space.ds.hit_fraction(metric, dir, target)));
    }
    if (row.report != Report::curves) {
        std::puts("");
        for (const auto& e : r.engines)
            std::printf("  %-18s final best (mean over runs): %.1f %s, %.1f distinct evals "
                        "per run\n",
                        e.spec.label.c_str(), e.curve.mean_final_best(), unit,
                        mean(samples({&e}, Stat::distinct_evals, 0.0)));
    }
    std::printf("\npaper: %s\n", row.paper);
}

// --- JSON and claims -----------------------------------------------------------

void append_interval(std::string& out, const char* key, const Interval& iv)
{
    out += std::string{",\""} + key + "\":{\"mean\":";
    obs::append_json_double(out, iv.value);
    out += ",\"ci\":[";
    obs::append_json_double(out, iv.lo);
    out += ',';
    obs::append_json_double(out, iv.hi);
    out += "]}";
}

void append_engine(std::string& out, const Row& row, const Space& space,
                   const exp::EngineResult& e)
{
    out += "{\"label\":";
    obs::json::append_string(out, e.spec.label);
    out += ",\"runs\":" + std::to_string(e.curve.runs()) + ",\"distinct_evals_per_run\":";
    obs::append_json_double(out, mean(samples({&e}, Stat::distinct_evals, 0.0)));
    append_interval(out, "final_best", bootstrap_mean(samples({&e}, Stat::final_best, 0.0)));
    out += ",\"targets\":[";
    for (double factor : row.thresholds) {
        const double target = space.optimum * factor;
        const auto reached = samples({&e}, Stat::reached, target);
        const auto hits = static_cast<std::size_t>(std::count(reached.begin(), reached.end(), 1.0));
        out += out.back() == '[' ? "{\"target\":" : ",{\"target\":";
        obs::append_json_double(out, target);
        out += ",\"reached\":" + std::to_string(hits) +
               ",\"censored\":" + std::to_string(reached.size() - hits);
        append_interval(out, "evals_to_target",
                        bootstrap_mean(samples({&e}, Stat::evals_to_target, target)));
        out += '}';
    }
    out += "]}";
}

// Judges every claim of the row on its runs at the claim seeds, printing one
// line and appending one JSON object per claim.  False when one fails.
bool judge_claims(const Row& row, const Space& space,
                  const std::vector<exp::ExperimentResult>& by_seed, std::string& json)
{
    std::printf("\nclaims (base seeds %llu-%llu, %zu runs per engine, 95%% bootstrap CI):\n",
                static_cast<unsigned long long>(row.seed),
                static_cast<unsigned long long>(row.seed + k_claim_seeds - 1),
                row.runs * k_claim_seeds);
    bool all_hold = true;
    json += ",\"claims\":[";
    for (const Claim& claim : row.claims) {
        std::vector<const exp::EngineResult*> a, b;
        for (const auto& r : by_seed) {
            for (const auto& e : r.engines) {
                if (e.spec.label == claim.a) a.push_back(&e);
                if (e.spec.label == claim.b) b.push_back(&e);
            }
        }
        const double target = space.optimum * row.thresholds[claim.threshold];
        const std::vector<double> sa = samples(a, claim.stat, target);
        const std::vector<double> sb = samples(b, claim.stat, target);
        const bool identical = claim.stat == Stat::identical_runs;
        const bool lower_better =
            claim.stat == Stat::evals_to_target || claim.stat == Stat::distinct_evals ||
            (claim.stat == Stat::final_best && row.query.direction == Direction::minimize);
        const Interval iv = identical ? Interval{1.0, 1.0, 1.0}
                                      : bootstrap(sa, sb, [&](double ma, double mb) {
                                            return lower_better ? mb / ma : ma / mb;
                                        });
        const bool holds = identical ? !sa.empty() && sa == sb : iv.lo >= claim.floor;
        all_hold = all_hold && holds;
        if (identical)
            std::printf("  %s  %s vs %s: %s\n", holds ? "PASS" : "FAIL", claim.a, claim.b,
                        holds ? "identical runs" : "runs differ");
        else
            std::printf("  %s  %s vs %s: %.4fx, CI [%.4f, %.4f], floor %.2fx\n",
                        holds ? "PASS" : "FAIL", claim.a, claim.b, iv.value, iv.lo, iv.hi,
                        claim.floor);
        std::printf("        %s\n", claim.text);

        json += json.back() == '[' ? "{\"claim\":" : ",{\"claim\":";
        obs::json::append_string(json, claim.text);
        append_interval(json, "advantage", iv);
        json += ",\"floor\":";
        obs::append_json_double(json, claim.floor);
        json += holds ? ",\"holds\":true}" : ",\"holds\":false}";
    }
    json += ']';
    return all_hold;
}

bool run(const Row& row, std::string& json)
{
    Space space;
    if (row.ip == Ip::fft)
        space.gen = std::make_unique<fft::FftGenerator>(synth::FpgaTech::virtex6_lx760t(),
                                                        /*measure_snr=*/false);
    else
        space.gen = std::make_unique<noc::RouterGenerator>();
    space.ds = ip::Dataset::enumerate(*space.gen);
    space.optimum = space.ds.best(row.query.metric, row.query.direction);
    std::vector<exp::EngineSpec> specs;
    for (const Variant& v : row.variants) {
        specs.push_back(v.spec);
        specs.back().hints_override = make_hints(v.hints, *space.gen, row.query);
    }

    std::vector<exp::ExperimentResult> by_seed{run_row(row, space, specs, row.seed)};
    print_report(row, space, by_seed.front(), specs);

    json += json.back() == '[' ? "{\"row\":" : ",{\"row\":";
    obs::json::append_string(json, row.name);
    json += ",\"seed\":" + std::to_string(row.seed) + ",\"optimum\":";
    obs::append_json_double(json, space.optimum);
    json += ",\"engines\":[";
    for (const auto& e : by_seed.front().engines) {
        if (json.back() != '[') json += ',';
        append_engine(json, row, space, e);
    }
    json += ']';
    bool holds = true;
    if (!row.claims.empty()) {
        for (std::size_t k = 1; k < k_claim_seeds; ++k)
            by_seed.push_back(run_row(row, space, specs, row.seed + k));
        holds = judge_claims(row, space, by_seed, json);
    }
    json += '}';
    std::puts("");
    return holds;
}

}  // namespace

int main(int argc, char** argv)
{
    const std::vector<Row> rows = paper_rows();
    std::vector<const Row*> chosen;
    for (int i = 1; i < argc; ++i) {
        const auto it = std::find_if(rows.begin(), rows.end(),
                                     [&](const Row& r) { return r.name == std::string{argv[i]}; });
        if (it == rows.end()) {
            std::fprintf(stderr, "bench_paper: unknown row '%s'; rows:", argv[i]);
            for (const Row& r : rows) std::fprintf(stderr, " %s", r.name);
            std::fputc('\n', stderr);
            return 2;
        }
        chosen.push_back(&*it);
    }
    if (chosen.empty())
        for (const Row& r : rows) chosen.push_back(&r);

    std::string json = "{\"bench\":\"paper\",\"ci\":0.95,\"resamples\":" +
                       std::to_string(k_resamples) +
                       ",\"bootstrap_seed\":" + std::to_string(k_bootstrap_seed) +
                       ",\"censoring\":\"evals_to_target counts a run that never reaches the "
                       "target at its final distinct-eval total\",\"rows\":[";
    bool holds = true;
    for (const Row* row : chosen) holds = run(*row, json) && holds;
    json += "]}";
    std::puts(json.c_str());
    return holds ? 0 : 1;
}
