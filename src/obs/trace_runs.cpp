#include "obs/trace_runs.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <variant>

namespace nautilus::obs {

namespace {

__attribute__((format(printf, 1, 2))) std::string strprintf(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    std::string out(static_cast<std::size_t>(std::vsnprintf(nullptr, 0, fmt, copy)), '\0');
    va_end(copy);
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    va_end(args);
    return out;
}

// Events that only make sense inside a run window (besides run_end).
constexpr std::string_view k_run_scoped[] = {"eval_wave",  "eval_fault", "quarantine",
                                             "checkpoint", "birth",      "lineage_summary"};

bool flag(const TraceEvent& ev, const char* key)
{
    const FieldValue* f = ev.find(key);
    const bool* b = f != nullptr ? std::get_if<bool>(f) : nullptr;
    return b != nullptr && *b;
}

LineageSummary lineage_summary_of(const TraceEvent& ev)
{
    LineageSummary s;
    s.have_winner = ev.find("winner") != nullptr;
    for (const LineageSummaryField& f : k_lineage_summary_fields)
        if (f.present(s)) s.*f.member = ev.unsigned_int(f.name).value_or(0);
    return s;
}

// Appends the birth event to the run, or reports why it cannot.
void fold_birth(const TraceEvent& ev, std::size_t line, RunWindow& run,
                std::vector<Diagnostic>& issues)
{
    BirthRecord rec;
    rec.id = ev.unsigned_int("id").value_or(0);
    rec.generation = ev.unsigned_int("gen").value_or(0);
    rec.parent_a = ev.unsigned_int("pa").value_or(k_no_parent);
    rec.parent_b = ev.unsigned_int("pb").value_or(k_no_parent);
    const std::string op = ev.string("op").value_or("?");
    if (!birth_op_from_name(op, rec.op)) {
        issues.push_back({line, "birth with unknown op '" + op + "'"});
        return;
    }
    if (!origins_from_codes(ev.string("origins").value_or("-"), rec.origins)) {
        issues.push_back({line, "birth with bad origin codes"});
        return;
    }
    // Ids are minted densely, and parents are always older (smaller id).
    if (!run.births.empty() && rec.id != run.births.front().id + run.births.size()) {
        run.dense = false;
        issues.push_back({line, strprintf("birth id %" PRIu64 " breaks the dense sequence",
                                          rec.id)});
    }
    for (const auto& [key, parent] :
         {std::pair{"pa", rec.parent_a}, std::pair{"pb", rec.parent_b}})
        if (parent != k_no_parent && parent >= rec.id)
            issues.push_back({line, strprintf("birth %" PRIu64 " has %s %" PRIu64
                                              " >= its own id",
                                              rec.id, key, parent)});
    run.births.push_back(std::move(rec));
}

// Whether k_diff_skips leaves out this field name, or with `event` this
// event type.
bool skipped(std::string_view name, bool event)
{
    return std::ranges::any_of(k_diff_skips, [&](const DiffSkip& skip) {
        return skip.event == event && skip.name == name;
    });
}

// Indices of the events that take part in a comparison.
std::vector<std::size_t> compared_events(const TraceFile& file)
{
    std::vector<std::size_t> kept;
    for (std::size_t k = 0; k < file.events.size(); ++k)
        if (!skipped(file.events[k].type, true)) kept.push_back(k);
    return kept;
}

// The fields of `ev` that take part, each with its value as written.
std::vector<std::pair<std::string_view, std::string>> compared_fields(const TraceEvent& ev)
{
    std::vector<std::pair<std::string_view, std::string>> kept;
    for (const auto& [key, value] : ev.fields) {
        if (skipped(key, false)) continue;
        std::string text;
        append_field_value(text, value);
        kept.emplace_back(key, std::move(text));
    }
    return kept;
}

}  // namespace

TraceFile load_trace(const std::string& path)
{
    std::ifstream in{path};
    if (!in) throw std::runtime_error("cannot read " + path);
    TraceFile file;
    std::string text;
    for (std::size_t line = 1; std::getline(in, text); ++line) {
        if (text.empty()) continue;
        if (std::optional<TraceEvent> ev = parse_jsonl_line(text)) {
            file.events.push_back(std::move(*ev));
            file.lines.push_back(line);
        }
        else file.bad_lines.push_back(line);
    }
    if (file.events.empty() && file.bad_lines.empty())
        throw std::runtime_error(path + " holds no events");
    return file;
}

TraceRuns fold_runs(const TraceFile& file)
{
    TraceRuns trace;
    trace.nonblank_lines = file.events.size() + file.bad_lines.size();
    for (const std::size_t line : file.bad_lines)
        trace.issues.push_back({line, "unparseable trace line"});
    std::optional<std::size_t> open;         // index of the open run
    std::optional<std::size_t> last_closed;  // most recent run with a run_end
    for (std::size_t k = 0; k < file.events.size(); ++k) {
        const TraceEvent& ev = file.events[k];
        const std::size_t line = file.lines[k];
        const auto u = [&](const char* key) { return ev.unsigned_int(key).value_or(0); };
        RunWindow* run = open ? &trace.runs[*open] : nullptr;
        ++trace.counts[ev.type];
        trace.last_t = ev.t;

        if (ev.type == "span") {
            SpanTotal& span = trace.spans[ev.string("name").value_or("?")];
            ++span.count;
            span.seconds += ev.number("seconds").value_or(0.0);
        }
        else if (ev.type == "run_start") {
            RunWindow& next = trace.runs.emplace_back();
            next.engine = ev.string("engine").value_or("?");
            next.first_line = line;
            next.resumed = flag(ev, "resumed");
            next.workers = u("workers");
            next.distinct_at_start = u("distinct_at_start");
            next.attempts_at_start = u("attempts_at_start");
            next.retries_at_start = u("retries_at_start");
            open = trace.runs.size() - 1;
        }
        else if (ev.type == "breed" || ev.type == "generation") {
            // NSGA-II reports its draws on the generation event, the GA on
            // breed; GA generation events carry no `born` and no draws.
            trace.bias_draws += u("bias_draws");
            trace.target_draws += u("target_draws");
            trace.uniform_draws += u("uniform_draws");
            trace.genes_mutated += u("genes_mutated");
            const std::optional<std::uint64_t> gen = ev.unsigned_int("gen");
            const std::optional<std::uint64_t> born = ev.unsigned_int("born");
            if (run != nullptr && gen && (ev.type == "breed" || born)) {
                GenDraws& draws = run->draws[*gen];
                draws.children += born.value_or(u("children"));
                draws.elites += u("elites");
                draws.uniform += u("uniform_draws");
                draws.bias += u("bias_draws");
                draws.target += u("target_draws");
            }
        }
        else if (ev.type == "job_summary") {
            if (last_closed)
                trace.runs[*last_closed].job = JobSummary{
                    .distinct_evals = u("distinct_evals"),
                    .fresh_evals = u("fresh_evals"),
                    .store_hits = u("store_hits"),
                    .retries = u("retries"),
                    .workers = u("workers"),
                };
            else trace.issues.push_back({line, "job_summary without a completed run"});
        }
        else if (run == nullptr) {
            if (ev.type == "run_end") trace.issues.push_back({line, "run_end without run_start"});
            else if (std::ranges::find(k_run_scoped, ev.type) != std::end(k_run_scoped))
                trace.issues.push_back({line, ev.type + " outside any run"});
        }
        else if (ev.type == "eval_wave") {
            ++run->waves;
            run->items += u("size");
            run->fresh += u("fresh");
            run->hits += u("hits");
            run->wave_seconds += ev.number("seconds").value_or(0.0);
        }
        else if (ev.type == "eval_fault") ++run->fault_events;
        else if (ev.type == "quarantine") ++run->quarantine_events;
        else if (ev.type == "checkpoint") ++run->checkpoint_events;
        else if (ev.type == "birth") fold_birth(ev, line, *run, trace.issues);
        else if (ev.type == "lineage_summary") run->lineage = lineage_summary_of(ev);
        else if (ev.type == "run_end") {
            run->closed = true;
            run->distinct_evals = u("distinct_evals");
            run->attempts = u("attempts");
            run->retries = u("retries");
            run->store_hits = u("store_hits");
            run->store_misses = u("store_misses");
            if (flag(ev, "feasible")) run->best = ev.number("best");
            last_closed = open;
            open.reset();
        }
    }
    std::stable_sort(trace.issues.begin(), trace.issues.end(),
                     [](const Diagnostic& a, const Diagnostic& b) { return a.line < b.line; });
    return trace;
}

std::vector<Diagnostic> check_runs(const TraceRuns& trace, bool require_run_end)
{
    std::vector<Diagnostic> out = trace.issues;
    for (std::size_t i = 0; i < trace.runs.size(); ++i) {
        const RunWindow& run = trace.runs[i];
        if (!run.closed) {
            if (require_run_end)
                out.push_back({0,
                               strprintf("run %zu (%s, line %zu): run_start without run_end",
                                         i, run.engine.c_str(), run.first_line),
                               i});
            continue;
        }
        const std::string prefix = strprintf("run %zu (%s): ", i, run.engine.c_str());
        const auto fail = [&](const std::string& text) { out.push_back({0, prefix + text, i}); };
        const auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
            if (got != want)
                fail(strprintf("%s %" PRIu64 " != expected %" PRIu64, what, got, want));
        };
        // Resumed runs restored distinct_at_start evaluations from the
        // checkpoint; only the delta was freshly charged in this trace.
        if (run.fresh != run.charged())
            fail(strprintf("summed wave fresh %" PRIu64 " != run distinct_evals %" PRIu64
                           " - distinct_at_start %" PRIu64,
                           run.fresh, run.distinct_evals, run.distinct_at_start));
        // Guard invariant: every cache miss is exactly one guarded call --
        // except misses the persistent store answered, which never reach
        // the guard -- and each guarded call makes 1 + retries attempts.
        const std::uint64_t d_attempts = run.attempts - run.attempts_at_start;
        const std::uint64_t d_retries = run.retries - run.retries_at_start;
        if (d_attempts + run.store_hits != run.fresh + d_retries)
            fail(strprintf("attempts %" PRIu64 " != fresh %" PRIu64 " - store_hits %" PRIu64
                           " + retries %" PRIu64,
                           d_attempts, run.fresh, run.store_hits, d_retries));
        if (run.items != run.fresh + run.hits)
            fail(strprintf("wave items %" PRIu64 " != fresh %" PRIu64 " + hits %" PRIu64,
                           run.items, run.fresh, run.hits));
        // A server job's closing summary mirrors the run's own counters; any
        // divergence means the scheduler accounted cost the engine never
        // reported (or vice versa).
        if (run.job) {
            const JobSummary& job = *run.job;
            const auto job_expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
                if (got != want)
                    fail(strprintf("job_summary %s %" PRIu64 " != run %" PRIu64, what, got,
                                   want));
            };
            job_expect("distinct_evals", job.distinct_evals, run.distinct_evals);
            job_expect("workers", job.workers, run.workers);
            job_expect("store_hits", job.store_hits, run.store_hits);
            job_expect("retries", job.retries, run.retries);
            job_expect("fresh_evals", job.fresh_evals,
                       run.distinct_evals - std::min(job.store_hits, run.distinct_evals));
        }
        // -- lineage conservation ------------------------------------------
        if (run.births.empty() && !run.lineage) continue;
        LineageSummary seen;  // birth-op tallies of the births in this window
        std::map<std::uint64_t, GenDraws> born;  // non-root births by generation
        for (const BirthRecord& rec : run.births) {
            if (rec.op == BirthOp::init || rec.op == BirthOp::resume) {
                ++seen.roots;
                continue;
            }
            GenDraws& gen = born[rec.generation];
            if (rec.op == BirthOp::elite) {
                ++seen.elites;
                ++gen.elites;
            }
            else ++gen.children;
            if (rec.op == BirthOp::mutation) ++seen.mutation_births;
            if (rec.op == BirthOp::crossover) ++seen.crossover_births;
            for (const GeneOrigin o : rec.origins) {
                if (o == GeneOrigin::uniform) ++gen.uniform;
                else if (o == GeneOrigin::bias) ++gen.bias;
                else if (o == GeneOrigin::target) ++gen.target;
            }
        }
        if (run.lineage) {
            // Summary totals cover restored records too; the window only
            // holds births minted in this trace.
            const LineageSummary& sum = *run.lineage;
            expect("lineage_summary births", sum.births,
                   sum.births_at_start + run.births.size());
            if (sum.births_at_start == 0) {
                expect("lineage_summary roots", sum.roots, seen.roots);
                expect("lineage_summary elites", sum.elites, seen.elites);
                expect("lineage_summary mutation_births", sum.mutation_births,
                       seen.mutation_births);
                expect("lineage_summary crossover_births", sum.crossover_births,
                       seen.crossover_births);
            }
        }
        else fail("births without a lineage_summary");
        // Every breed event's offspring (GA) or generation's `born` count
        // (NSGA-II) must be born, gene class for gene class.
        const bool ga = run.engine == "ga";
        if (!ga && run.engine != "nsga2") continue;
        for (const auto& [gen, draws] : run.draws) {
            const auto it = born.find(gen);
            const GenDraws births = it != born.end() ? it->second : GenDraws{};
            expect(ga ? "gen births" : "gen births vs born", births.children + births.elites,
                   draws.children + draws.elites);
            if (ga) expect("gen elite births", births.elites, draws.elites);
            expect("gen uniform origins", births.uniform, draws.uniform);
            expect("gen bias origins", births.bias, draws.bias);
            expect("gen target origins", births.target, draws.target);
        }
        if (ga)
            for (const auto& [gen, births] : born)
                if (run.draws.count(gen) == 0)
                    expect("births without a breed event at gen",
                           births.children + births.elites, 0);
    }
    return out;
}

std::optional<Diagnostic> compare_traces(const TraceFile& base, const TraceFile& cand)
{
    const std::vector<std::size_t> b = compared_events(base);
    const std::vector<std::size_t> c = compared_events(cand);
    const std::size_t common = std::min(b.size(), c.size());
    for (std::size_t i = 0; i < common; ++i) {
        const TraceEvent& x = base.events[b[i]];
        const TraceEvent& y = cand.events[c[i]];
        const auto differ = [&](const std::string& what) {
            return Diagnostic{base.lines[b[i]],
                              strprintf("base line %zu vs candidate line %zu: %s",
                                        base.lines[b[i]], cand.lines[c[i]], what.c_str())};
        };
        if (x.type != y.type) return differ("event type '" + x.type + "' vs '" + y.type + "'");
        const auto fx = compared_fields(x);
        const auto fy = compared_fields(y);
        for (std::size_t j = 0; j < std::max(fx.size(), fy.size()); ++j) {
            const auto name = [j](const auto& fields) {
                return j < fields.size() ? fields[j].first : std::string_view{"(none)"};
            };
            if (name(fx) == name(fy) && fx[j].second == fy[j].second) continue;
            const std::string field = x.type + " field '" + std::string{name(fx)} + "'";
            if (name(fx) != name(fy))
                return differ(field + " vs '" + std::string{name(fy)} + "'");
            return differ(field + ": " + fx[j].second + " vs " + fy[j].second);
        }
    }
    if (b.size() == c.size()) return std::nullopt;
    const bool base_longer = b.size() > c.size();
    const TraceFile& file = base_longer ? base : cand;
    const std::size_t k = (base_longer ? b : c)[common];
    return Diagnostic{file.lines[k],
                      strprintf("%s line %zu: extra '%s' event (%zu vs %zu compared events)",
                                base_longer ? "base" : "candidate", file.lines[k],
                                file.events[k].type.c_str(), b.size(), c.size())};
}

}  // namespace nautilus::obs
