// nautilus_trace: summarize, validate, compare and explain the JSONL traces
// written by `nautilus_cli --trace PATH` (or any obs::JsonlFileSink).  Every
// subcommand reads traces through obs/trace_runs.hpp, so they agree on what
// a trace says and on when it is broken.
//
//   nautilus_trace inspect TRACE.jsonl [--check] [--chrome OUT.json]
//     Summary: event counts by type, span timings, a per-run table (engine,
//     waves, distinct vs. total evaluations, cache hit rate, wall-clock) and
//     the hint-guided mutation draw distribution.  --check validates
//     instead: every line parses and every invariant of obs::check_runs
//     holds (evaluation and attempt accounting, lineage conservation,
//     job_summary reconciliation).  --chrome also converts the trace to the
//     Chrome trace-event JSON array format; load it at ui.perfetto.dev.
//
//   nautilus_trace diff BASE.jsonl CAND.jsonl [options]
//     Compares two traces of the same workload and gates on regressions:
//     run the same seeded search before and after a change, diff the
//     traces, and fail when the candidate drifts past the thresholds.  A
//     trace with an unparseable or misplaced line, or a run without a
//     run_end, fails outright.
//     Deterministic (on by default, zero tolerance): run count and engines,
//     per-run distinct evaluations, total calls, cache hits, retries and the
//     final best value.  Identical-seed runs of a deterministic engine must
//     match bit-for-bit (the repo's determinism contract), so any delta is a
//     real behavioural regression, not noise.
//       --allow-best-delta X      tolerate |best_base - best_cand| <= X
//       --allow-count-delta N     tolerate counter deltas up to N
//       --no-counters             skip the deterministic family entirely
//     Timing (off by default; wall-clock is machine-dependent, so these
//     only gate when enabled with a nonzero percentage):
//       --max-throughput-drop P   fail when candidate distinct-evals/s is
//                                 more than P percent below the baseline
//       --max-phase-slowdown P    fail when any span phase (ga.run,
//                                 ga.breed, ...) taking >= 10 ms in the
//                                 baseline is more than P percent slower
//     Store check (off by default): the candidate is a warm re-run of the
//     baseline against a persistent evaluation store; besides the
//     deterministic gates, the store must have absorbed the work:
//       --store-check             fail unless the candidate served at least
//                                 --min-store-hit-rate percent of its
//                                 evaluations from the store (default 99)
//       --min-store-hit-rate P    override the hit-rate floor
//
//   nautilus_trace lineage TRACE.jsonl [--run N]
//     Explains *why* a search found what it found (DESIGN.md section 11):
//     per run, the hint-class efficacy table (offspring produced ->
//     survived -> improved-best), winner gene attribution and the winner's
//     ancestry.  When a run started from scratch (births_at_start == 0) the
//     birth events are re-summarized with obs::summarize_lineage and any
//     disagreement with the run's lineage_summary fails -- the engines'
//     arithmetic, done again independently.  --run N reports run N only.
//
// Unknown flags are rejected with a usage message, so CI scripts fail fast
// on typos instead of treating a flag as a trace path.
//
// Exit status: 0 pass, 1 gate failure or unreadable/empty/broken trace,
// 2 bad usage.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/lineage.hpp"
#include "obs/trace_runs.hpp"
#include "strict_number.hpp"

using namespace nautilus::obs;

namespace {

// One subcommand's command line (argv[1] names the subcommand): usage and
// help text, option walking and strict number parsing.
class Args {
public:
    Args(int argc, char** argv, const char* synopsis, const char* options)
        : argc_(argc), argv_(argv), synopsis_(synopsis), options_(options),
          tool_(std::string{"nautilus_trace "} + argv[1])
    {
    }

    // Prefix for this subcommand's messages.
    const char* tool() const { return tool_.c_str(); }

    // Hands each option other than -h/--help to `option`, which returns
    // false for an unknown one; returns the positional arguments.
    template <typename Option>
    std::vector<std::string> parse(Option&& option)
    {
        std::vector<std::string> positional;
        for (i_ = 2; i_ < argc_; ++i_) {
            const std::string arg = argv_[i_];
            if (arg == "--help" || arg == "-h") help();
            else if (arg.empty() || arg[0] != '-') positional.push_back(arg);
            else if (!option(arg)) {
                std::fprintf(stderr, "%s: unknown option '%s'\n", tool(), arg.c_str());
                usage();
            }
        }
        return positional;
    }

    // The current option's value.
    const char* value()
    {
        if (i_ + 1 >= argc_) usage();
        return argv_[++i_];
    }

    // value() as a finite number, or exit 2 naming the flag.
    double number()
    {
        if (const auto v = nautilus::tools::parse_number(value())) return *v;
        invalid("a finite number");
    }

    // value() as a non-negative integer, or exit 2 naming the flag.
    std::uint64_t count()
    {
        if (const auto v = nautilus::tools::parse_count(value())) return *v;
        invalid("a non-negative integer");
    }

    [[noreturn]] void usage() const
    {
        print_usage(stderr);
        std::exit(2);
    }

private:
    void print_usage(std::FILE* out) const
    {
        std::fprintf(out, "usage: %s %s %s", argv_[0], argv_[1], synopsis_);
    }

    [[noreturn]] void help() const
    {
        print_usage(stdout);
        std::fputs(options_, stdout);
        std::exit(0);
    }

    [[noreturn]] void invalid(const char* expected) const
    {
        std::fprintf(stderr, "%s: invalid value '%s' for %s (expected %s)\n", tool(),
                     argv_[i_], argv_[i_ - 1], expected);
        usage();
    }

    int argc_;
    char** argv_;
    const char* synopsis_;
    const char* options_;
    std::string tool_;
    int i_ = 2;
};

// -- inspect -----------------------------------------------------------------

void print_summary(const std::string& path, const TraceRuns& trace)
{
    std::printf("trace: %s (%zu events, %.3f s span)\n", path.c_str(), trace.nonblank_lines,
                trace.last_t);
    std::printf("events by type:\n");
    for (const auto& [type, n] : trace.counts)
        std::printf("  %-14s %8" PRIu64 "\n", type.c_str(), n);

    if (!trace.spans.empty()) {
        std::printf("span timings:\n");
        for (const auto& [name, span] : trace.spans)
            std::printf("  %-14s %8" PRIu64 " x %10.4f s total\n", name.c_str(), span.count,
                        span.seconds);
    }

    if (!trace.runs.empty()) {
        std::printf("runs:\n");
        std::printf("  %3s  %-8s %6s %8s %9s %8s %6s %9s %12s\n", "#", "engine", "waves",
                    "items", "distinct", "hits", "hit%", "eval s", "best");
        std::uint64_t total_items = 0;
        std::uint64_t total_fresh = 0;
        for (std::size_t i = 0; i < trace.runs.size(); ++i) {
            const RunWindow& run = trace.runs[i];
            total_items += run.items;
            total_fresh += run.fresh;
            const double hit_rate =
                run.items > 0
                    ? 100.0 * static_cast<double>(run.hits) / static_cast<double>(run.items)
                    : 0.0;
            std::printf("  %3zu  %-8s %6" PRIu64 " %8" PRIu64 " %9" PRIu64 " %8" PRIu64
                        " %5.1f%% %9.4f ",
                        i, run.engine.c_str(), run.waves, run.items, run.fresh, run.hits,
                        hit_rate, run.wave_seconds);
            if (run.best) std::printf("%12.3f", *run.best);
            else std::printf("%12s", "-");
            if (run.resumed) std::printf("  [resumed @%" PRIu64 "]", run.distinct_at_start);
            if (run.fault_events > 0 || run.quarantine_events > 0)
                std::printf("  [faults %" PRIu64 ", quarantined %" PRIu64 "]",
                            run.fault_events, run.quarantine_events);
            if (run.checkpoint_events > 0)
                std::printf("  [checkpoints %" PRIu64 "]", run.checkpoint_events);
            if (!run.closed) std::printf("  [unterminated]");
            std::printf("\n");
        }
        const double overall_hit =
            total_items > 0 ? 100.0 * static_cast<double>(total_items - total_fresh) /
                                  static_cast<double>(total_items)
                            : 0.0;
        std::printf("  overall: %" PRIu64 " items, %" PRIu64 " distinct, %.1f%% cache hits\n",
                    total_items, total_fresh, overall_hit);
    }

    const std::uint64_t draws = trace.bias_draws + trace.target_draws + trace.uniform_draws;
    if (draws > 0) {
        const auto pct = [&](std::uint64_t n) {
            return 100.0 * static_cast<double>(n) / static_cast<double>(draws);
        };
        std::printf("mutation draws: %" PRIu64 " genes (bias %.1f%%, target %.1f%%, uniform "
                    "%.1f%%)\n",
                    trace.genes_mutated, pct(trace.bias_draws), pct(trace.target_draws),
                    pct(trace.uniform_draws));
    }
}

int inspect(Args args)
{
    bool check = false;
    std::string chrome_out;
    const std::vector<std::string> paths = args.parse([&](const std::string& arg) {
        if (arg == "--check") check = true;
        else if (arg == "--chrome") chrome_out = args.value();
        else return false;
        return true;
    });
    if (paths.size() != 1) args.usage();
    const std::string& path = paths[0];
    const TraceFile file = load_trace(path);
    const TraceRuns trace = fold_runs(file);

    if (!chrome_out.empty()) {
        std::ofstream out{chrome_out};
        if (!out) {
            std::fprintf(stderr, "%s: cannot write %s\n", args.tool(), chrome_out.c_str());
            return 1;
        }
        out << chrome_trace_json(file.events);
        std::printf("chrome trace written to %s (%zu events; open at ui.perfetto.dev)\n",
                    chrome_out.c_str(), file.events.size());
    }

    // Without --check a truncated run is listed as [unterminated], not failed.
    std::size_t line_errors = 0;
    std::size_t run_errors = 0;
    for (const Diagnostic& d : check_runs(trace, /*require_run_end=*/check)) {
        if (d.line > 0) {
            ++line_errors;
            std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), d.line, d.text.c_str());
        }
        else {
            ++run_errors;
            std::fprintf(stderr, "%s\n", d.text.c_str());
        }
    }
    if (check) {
        if (line_errors > 0 || run_errors > 0) {
            std::fprintf(stderr, "%s: FAIL (%zu parse errors, %zu accounting errors)\n",
                         args.tool(), line_errors, run_errors);
            return 1;
        }
        std::printf("%s: OK (%zu events, %zu runs, accounting consistent)\n", args.tool(),
                    trace.nonblank_lines, trace.runs.size());
        return 0;
    }
    print_summary(path, trace);
    if (run_errors > 0) {
        std::fprintf(stderr, "%s: %zu accounting inconsistencies (see above)\n", args.tool(),
                     run_errors);
        return 1;
    }
    return 0;
}

// -- diff --------------------------------------------------------------------

std::uint64_t distinct(const TraceRuns& trace)
{
    std::uint64_t n = 0;
    for (const RunWindow& run : trace.runs) n += run.charged();
    return n;
}

double eval_seconds(const TraceRuns& trace)
{
    double s = 0.0;
    for (const RunWindow& run : trace.runs) s += run.wave_seconds;
    return s;
}

// Distinct (fresh) evaluations per second of evaluation wall-clock.
double throughput(const TraceRuns& trace)
{
    const double s = eval_seconds(trace);
    return s > 0.0 ? static_cast<double>(distinct(trace)) / s : 0.0;
}

int diff(Args args)
{
    double allow_best_delta = 0.0;
    std::uint64_t allow_count_delta = 0;
    bool counters = true;
    double max_throughput_drop = 0.0;  // percent; 0 = timing gate disabled
    double max_phase_slowdown = 0.0;   // percent; 0 = timing gate disabled
    bool store_check = false;
    double min_store_hit_rate = 99.0;  // percent, only gates with --store-check
    const std::vector<std::string> paths = args.parse([&](const std::string& arg) {
        if (arg == "--allow-best-delta") allow_best_delta = args.number();
        else if (arg == "--allow-count-delta") allow_count_delta = args.count();
        else if (arg == "--no-counters") counters = false;
        else if (arg == "--max-throughput-drop") max_throughput_drop = args.number();
        else if (arg == "--max-phase-slowdown") max_phase_slowdown = args.number();
        else if (arg == "--store-check") store_check = true;
        else if (arg == "--min-store-hit-rate") min_store_hit_rate = args.number();
        else return false;
        return true;
    });
    if (paths.size() != 2) args.usage();
    const TraceRuns base = fold_runs(load_trace(paths[0]));
    const TraceRuns cand = fold_runs(load_trace(paths[1]));

    std::size_t failures = 0;
    const auto fail = [&](const char* fmt, auto... values) {
        ++failures;
        std::fprintf(stderr, "%s: FAIL: ", args.tool());
        std::fprintf(stderr, fmt, values...);
        std::fprintf(stderr, "\n");
    };
    const auto verdict = [&] {
        if (failures == 0) {
            std::printf("%s: OK (all gates passed)\n", args.tool());
            return 0;
        }
        std::fprintf(stderr, "%s: %zu gate failure(s)\n", args.tool(), failures);
        return 1;
    };

    // A broken trace compares as nothing: report it and stop.
    for (std::size_t t = 0; t < 2; ++t) {
        const TraceRuns& trace = t == 0 ? base : cand;
        for (const Diagnostic& d : trace.issues)
            fail("%s:%zu: %s", paths[t].c_str(), d.line, d.text.c_str());
        for (std::size_t i = 0; i < trace.runs.size(); ++i)
            if (!trace.runs[i].closed)
                fail("%s: run %zu (%s, line %zu) has no run_end", paths[t].c_str(), i,
                     trace.runs[i].engine.c_str(), trace.runs[i].first_line);
    }
    if (failures > 0) return verdict();

    std::printf("%s: %s (base) vs %s (candidate)\n", args.tool(), paths[0].c_str(),
                paths[1].c_str());
    std::printf("  %-26s %14s %14s\n", "", "base", "candidate");
    std::printf("  %-26s %14zu %14zu\n", "events", base.nonblank_lines, cand.nonblank_lines);
    std::printf("  %-26s %14zu %14zu\n", "runs", base.runs.size(), cand.runs.size());
    std::printf("  %-26s %14" PRIu64 " %14" PRIu64 "\n", "distinct evals", distinct(base),
                distinct(cand));
    std::printf("  %-26s %14.4f %14.4f\n", "eval seconds", eval_seconds(base),
                eval_seconds(cand));
    std::printf("  %-26s %14.1f %14.1f\n", "evals/s", throughput(base), throughput(cand));

    if (counters) {
        if (base.runs.size() != cand.runs.size())
            fail("run count: base %zu, candidate %zu", base.runs.size(), cand.runs.size());
        const auto check_count = [&](const char* what, std::size_t run, std::uint64_t b,
                                     std::uint64_t c) {
            if ((b > c ? b - c : c - b) > allow_count_delta)
                fail("run %zu %s: base %" PRIu64 ", candidate %" PRIu64, run, what, b, c);
        };
        const std::size_t n = std::min(base.runs.size(), cand.runs.size());
        for (std::size_t i = 0; i < n; ++i) {
            const RunWindow& b = base.runs[i];
            const RunWindow& c = cand.runs[i];
            if (b.engine != c.engine)
                fail("run %zu engine: base '%s', candidate '%s'", i, b.engine.c_str(),
                     c.engine.c_str());
            check_count("distinct evals", i, b.charged(), c.charged());
            check_count("total calls", i, b.total_calls, c.total_calls);
            check_count("cache hits", i, b.hits, c.hits);
            check_count("retries", i, b.retries, c.retries);
            if (b.best.has_value() != c.best.has_value())
                fail("run %zu feasibility: base %s, candidate %s", i,
                     b.best ? "feasible" : "infeasible", c.best ? "feasible" : "infeasible");
            else if (b.best && std::abs(*b.best - *c.best) > allow_best_delta)
                fail("run %zu best: base %.6f, candidate %.6f (delta %.6g > %.6g)", i, *b.best,
                     *c.best, std::abs(*b.best - *c.best), allow_best_delta);
        }
    }

    if (max_throughput_drop > 0.0 && throughput(base) > 0.0) {
        const double floor = throughput(base) * (1.0 - max_throughput_drop / 100.0);
        if (throughput(cand) < floor)
            fail("throughput: candidate %.1f evals/s < %.1f (base %.1f - %.1f%%)",
                 throughput(cand), floor, throughput(base), max_throughput_drop);
    }
    if (max_phase_slowdown > 0.0) {
        for (const auto& [name, b_span] : base.spans) {
            if (b_span.seconds < 0.010) continue;  // below timing noise
            const auto it = cand.spans.find(name);
            if (it == cand.spans.end()) continue;
            const double cap = b_span.seconds * (1.0 + max_phase_slowdown / 100.0);
            if (it->second.seconds > cap)
                fail("phase %s: candidate %.4f s > %.4f s (base %.4f s + %.1f%%)",
                     name.c_str(), it->second.seconds, cap, b_span.seconds,
                     max_phase_slowdown);
        }
    }

    if (store_check) {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        for (const RunWindow& run : cand.runs) {
            hits += run.store_hits;
            misses += run.store_misses;
        }
        const std::uint64_t total = hits + misses;
        const double rate =
            total > 0 ? 100.0 * static_cast<double>(hits) / static_cast<double>(total) : 0.0;
        std::printf("  store-check: candidate served %" PRIu64 "/%" PRIu64
                    " evals from the store (%.1f%% hit rate, floor %.1f%%)\n",
                    hits, total, rate, min_store_hit_rate);
        if (total == 0)
            fail("%s", "store-check: candidate trace records no store activity"
                       " (was it run with --store?)");
        else if (rate < min_store_hit_rate)
            fail("store-check: hit rate %.1f%% < %.1f%% (%" PRIu64 "/%" PRIu64
                 " evals hit the store)",
                 rate, min_store_hit_rate, hits, total);
    }
    return verdict();
}

// -- lineage -----------------------------------------------------------------

void print_efficacy(const LineageSummary& s)
{
    std::printf("  hint-class efficacy (offspring -> survived -> improved-best):\n");
    std::printf("    %-8s %10s %10s %10s\n", "class", "offspring", "survived", "improved");
    const auto row = [](const char* name, std::uint64_t off, std::uint64_t sur,
                        std::uint64_t imp) {
        std::printf("    %-8s %10" PRIu64 " %10" PRIu64 " %10" PRIu64 "\n", name, off, sur,
                    imp);
    };
    row("bias", s.offspring_bias, s.survived_bias, s.improved_bias);
    row("target", s.offspring_target, s.survived_target, s.improved_target);
    row("uniform", s.offspring_uniform, s.survived_uniform, s.improved_uniform);
}

void print_winner(const LineageSummary& s)
{
    if (!s.have_winner) {
        std::printf("  winner: none (no feasible best)\n");
        return;
    }
    std::printf("  winner: id %" PRIu64 " (%" PRIu64 " genome%s, ancestry depth %" PRIu64
                ")\n",
                s.winner, s.winner_count, s.winner_count == 1 ? "" : "s", s.winner_depth);
    const auto pct = [&](std::uint64_t n) {
        return s.winner_genes > 0
                   ? 100.0 * static_cast<double>(n) / static_cast<double>(s.winner_genes)
                   : 0.0;
    };
    std::printf("  winner gene attribution (%" PRIu64 " genes):\n", s.winner_genes);
    std::printf("    bias %" PRIu64 " (%.1f%%), target %" PRIu64 " (%.1f%%), uniform %" PRIu64
                " (%.1f%%), fresh %" PRIu64 " (%.1f%%), repair %" PRIu64 " (%.1f%%)\n",
                s.winner_bias, pct(s.winner_bias), s.winner_target, pct(s.winner_target),
                s.winner_uniform, pct(s.winner_uniform), s.winner_fresh, pct(s.winner_fresh),
                s.winner_repair, pct(s.winner_repair));
}

// Whether births[i].id == i, so parent ids index the births directly.
bool indexed(const RunWindow& run)
{
    return run.dense && (run.births.empty() || run.births.front().id == 0);
}

// Primary-parent ancestry chain of the winner, newest first.
void print_ancestry(const RunWindow& run)
{
    if (!indexed(run) || !run.lineage->have_winner) return;
    const std::vector<BirthRecord>& records = run.births;
    std::uint64_t id = run.lineage->winner;
    if (id >= records.size()) return;
    std::printf("  winner ancestry (primary-parent chain):\n");
    std::size_t hops = 0;
    while (id < records.size()) {
        const BirthRecord& rec = records[id];
        if (hops >= 24) {
            std::printf("    ... (%" PRIu64 " older ancestors elided)\n", rec.generation + 1);
            break;
        }
        std::printf("    gen %-5" PRIu64 " %-9s id %" PRIu64, rec.generation,
                    birth_op_name(rec.op), rec.id);
        if (rec.parent_a != k_no_parent) {
            std::printf("  pa %" PRIu64, rec.parent_a);
            if (rec.op == BirthOp::crossover) std::printf(" pb %" PRIu64, rec.parent_b);
        }
        std::uint64_t u = 0, b = 0, t = 0;
        for (const GeneOrigin o : rec.origins) {
            if (o == GeneOrigin::uniform) ++u;
            else if (o == GeneOrigin::bias) ++b;
            else if (o == GeneOrigin::target) ++t;
        }
        if (u + b + t > 0)
            std::printf("  mutated: bias %" PRIu64 ", target %" PRIu64 ", uniform %" PRIu64, b,
                        t, u);
        std::printf("\n");
        ++hops;
        if (rec.parent_a == k_no_parent) break;
        if (rec.parent_a >= rec.id) break;  // corrupt; the acyclicity check reports it
        id = rec.parent_a;
    }
}

// Re-derive the event-independent summary fields from the births and
// compare.  Survival/improvement flags are not replayed from the trace, so
// only birth-op tallies, gene-class totals and (for single-winner engines)
// the winner attribution take part.
std::size_t cross_check(const char* tool, const RunWindow& run, std::size_t run_index)
{
    const LineageSummary& summary = *run.lineage;
    if (!indexed(run) || summary.births_at_start != 0) return 0;
    std::vector<std::uint64_t> winners;
    if (summary.have_winner && summary.winner_count == 1) winners.push_back(summary.winner);
    const LineageSummary derived = summarize_lineage(run.births, winners, 0);
    std::size_t mismatches = 0;
    const auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
        if (got == want) return;
        ++mismatches;
        std::fprintf(stderr, "%s: run %zu: rebuilt %s %" PRIu64 " != summary %" PRIu64 "\n",
                     tool, run_index, what, got, want);
    };
    expect("births", derived.births, summary.births);
    expect("roots", derived.roots, summary.roots);
    expect("elites", derived.elites, summary.elites);
    expect("mutation_births", derived.mutation_births, summary.mutation_births);
    expect("crossover_births", derived.crossover_births, summary.crossover_births);
    expect("genes_fresh", derived.genes_fresh, summary.genes_fresh);
    expect("genes_inherited", derived.genes_inherited, summary.genes_inherited);
    expect("genes_crossed", derived.genes_crossed, summary.genes_crossed);
    expect("genes_uniform", derived.genes_uniform, summary.genes_uniform);
    expect("genes_bias", derived.genes_bias, summary.genes_bias);
    expect("genes_target", derived.genes_target, summary.genes_target);
    expect("genes_repair", derived.genes_repair, summary.genes_repair);
    if (!winners.empty()) {
        expect("winner_genes", derived.winner_genes, summary.winner_genes);
        expect("winner_fresh", derived.winner_fresh, summary.winner_fresh);
        expect("winner_uniform", derived.winner_uniform, summary.winner_uniform);
        expect("winner_bias", derived.winner_bias, summary.winner_bias);
        expect("winner_target", derived.winner_target, summary.winner_target);
        expect("winner_repair", derived.winner_repair, summary.winner_repair);
        expect("winner_depth", derived.winner_depth, summary.winner_depth);
    }
    return mismatches;
}

int lineage(Args args)
{
    std::optional<std::uint64_t> only_run;
    const std::vector<std::string> paths = args.parse([&](const std::string& arg) {
        if (arg != "--run") return false;
        only_run = args.count();
        return true;
    });
    if (paths.size() != 1) args.usage();
    const std::string& path = paths[0];
    const TraceRuns trace = fold_runs(load_trace(path));
    for (const Diagnostic& d : trace.issues)
        std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), d.line, d.text.c_str());
    if (trace.runs.empty()) {
        std::fprintf(stderr, "%s: %s holds no runs\n", args.tool(), path.c_str());
        return 1;
    }
    if (only_run && *only_run >= trace.runs.size()) {
        std::fprintf(stderr, "%s: run %" PRIu64 " out of range (%zu runs)\n", args.tool(),
                     *only_run, trace.runs.size());
        return 1;
    }

    std::size_t mismatches = 0;
    std::size_t reported = 0;
    for (std::size_t i = 0; i < trace.runs.size(); ++i) {
        if (only_run && *only_run != i) continue;
        const RunWindow& run = trace.runs[i];
        if (!run.lineage) {
            std::printf("run %zu (%s, line %zu): no lineage recorded\n", i, run.engine.c_str(),
                        run.first_line);
            continue;
        }
        ++reported;
        const LineageSummary& s = *run.lineage;
        std::printf("run %zu (%s):\n", i, run.engine.c_str());
        std::printf("  births %" PRIu64 " (roots %" PRIu64 ", elites %" PRIu64
                    ", mutation %" PRIu64 ", crossover %" PRIu64 ")%s\n",
                    s.births, s.roots, s.elites, s.mutation_births, s.crossover_births,
                    s.births_at_start > 0 ? "  [resumed: ancestry tree spans the"
                                            " restored records]"
                                          : "");
        std::printf("  survived %" PRIu64 ", improved-best %" PRIu64 "\n", s.survived,
                    s.improved);
        print_efficacy(s);
        print_winner(s);
        print_ancestry(run);
        mismatches += cross_check(args.tool(), run, i);
    }

    if (!trace.issues.empty() || mismatches > 0) {
        std::fprintf(stderr, "%s: FAIL (%zu parse errors, %zu cross-check mismatches)\n",
                     args.tool(), trace.issues.size(), mismatches);
        return 1;
    }
    if (reported == 0) std::printf("%s: no lineage events in %s\n", args.tool(), path.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
    const std::string sub = argc > 1 ? argv[1] : "";
    try {
        if (sub == "inspect")
            return inspect(Args{argc, argv, "TRACE.jsonl [--check] [--chrome OUT.json]\n",
                                "  --check          validate accounting invariants; nonzero"
                                " exit on any failure\n"
                                "  --chrome OUT     also write Chrome trace-event JSON"
                                " (ui.perfetto.dev)\n"
                                "  -h, --help       show this help\n"});
        if (sub == "diff")
            return diff(Args{argc, argv,
                             "BASE.jsonl CAND.jsonl [--allow-best-delta X]\n"
                             "          [--allow-count-delta N] [--no-counters]\n"
                             "          [--max-throughput-drop PCT] [--max-phase-slowdown PCT]\n"
                             "          [--store-check] [--min-store-hit-rate PCT]\n",
                             ""});
        if (sub == "lineage")
            return lineage(Args{argc, argv, "TRACE.jsonl [--run N]\n",
                                "  --run N     report only run N (0-based; default: all"
                                " runs)\n"
                                "  -h, --help  show this help\n"});
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "nautilus_trace %s: %s\n", sub.c_str(), e.what());
        return 1;
    }
    const bool help = sub == "--help" || sub == "-h";
    if (!help && !sub.empty())
        std::fprintf(stderr, "nautilus_trace: unknown subcommand '%s'\n", sub.c_str());
    std::fprintf(help ? stdout : stderr,
                 "usage: %s inspect TRACE.jsonl [--check] [--chrome OUT.json]\n"
                 "       %s diff BASE.jsonl CAND.jsonl [options]\n"
                 "       %s lineage TRACE.jsonl [--run N]\n"
                 "run '%s SUBCOMMAND --help' for a subcommand's options\n",
                 argv[0], argv[0], argv[0], argv[0]);
    return help ? 0 : 2;
}
