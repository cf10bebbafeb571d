#pragma once
// Reading JSONL traces back: one loader, one fold of the events into
// run_start..run_end windows, the accounting invariants checked over those
// windows, and the one comparison of two traces.  `nautilus_trace`
// (inspect, diff, lineage) and the tests all read traces through this
// module, so they agree on what a trace says, on when it is broken and on
// when two traces say the same thing.
//
// The invariants (check_runs) are the fault-tolerance accounting of
// DESIGN.md section 8, the lineage conservation of section 11 and the
// job_summary reconciliation of section 12:
//   * every line parses, and run-scoped events sit inside a run window;
//   * per run, summed wave `fresh` equals the distinct evaluations charged
//     in this trace (run_end distinct_evals minus the checkpointed
//     distinct_at_start on resumed runs), wave items equal fresh + hits,
//     and every guarded attempt is accounted for:
//       attempts - attempts_at_start
//         == fresh - store_hits + (retries - retries_at_start);
//   * birth ids are dense and parents precede children; GA birth counts
//     and per-class origin sums match the breed events gene-for-gene, the
//     NSGA-II `born` field matches its generation's births, and the
//     lineage_summary totals agree with the births observed;
//   * a server job's job_summary mirrors the run's own run_end counters
//     and its granted workers match the run_start workers field.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/lineage.hpp"
#include "obs/trace.hpp"

namespace nautilus::obs {

// A JSONL trace as read from disk.
struct TraceFile {
    std::vector<TraceEvent> events;
    std::vector<std::size_t> lines;      // source line of each event
    std::vector<std::size_t> bad_lines;  // unparseable lines
};

// Throws std::runtime_error when `path` cannot be read or holds no
// non-blank line.
TraceFile load_trace(const std::string& path);

// Breeding at one generation: a GA `breed` event (children, elites), or an
// NSGA-II `generation` event (its `born` count lands in children), plus the
// mutation draws by class.
struct GenDraws {
    std::uint64_t children = 0;
    std::uint64_t elites = 0;
    std::uint64_t uniform = 0;
    std::uint64_t bias = 0;
    std::uint64_t target = 0;
};

// A server job's closing job_summary event.
struct JobSummary {
    std::uint64_t distinct_evals = 0;
    std::uint64_t fresh_evals = 0;
    std::uint64_t store_hits = 0;
    std::uint64_t retries = 0;
    std::uint64_t workers = 0;
};

// One run_start..run_end window.  Run-scoped events attach to the open run;
// engines run sequentially, so runs never nest.
struct RunWindow {
    std::string engine;
    std::size_t first_line = 0;
    // From run_start: resume baselines (zero for fresh runs).
    bool resumed = false;
    std::uint64_t workers = 0;
    std::uint64_t distinct_at_start = 0;
    std::uint64_t attempts_at_start = 0;
    std::uint64_t retries_at_start = 0;
    // Summed eval_wave events.
    std::uint64_t waves = 0;
    std::uint64_t items = 0;
    std::uint64_t fresh = 0;
    std::uint64_t hits = 0;
    double wave_seconds = 0.0;
    // Fault-tolerance event tallies.
    std::uint64_t fault_events = 0;
    std::uint64_t quarantine_events = 0;
    std::uint64_t checkpoint_events = 0;
    // From run_end; `closed` stays false when the trace stops mid-run.
    bool closed = false;
    std::uint64_t distinct_evals = 0;
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t store_hits = 0;  // 0 when no store was attached
    std::uint64_t store_misses = 0;
    std::optional<double> best;  // feasible runs only
    // Lineage (DESIGN.md section 11): breeding by generation, the births
    // in trace order and the run's lineage_summary (absent when off).
    std::map<std::uint64_t, GenDraws> draws;
    std::vector<BirthRecord> births;
    bool dense = true;  // births[i].id == births[0].id + i
    std::optional<LineageSummary> lineage;
    // job_summary follows run_end, so it attaches to the last closed run.
    std::optional<JobSummary> job;

    // Distinct evaluations charged in this trace (0 while unterminated).
    std::uint64_t charged() const { return closed ? distinct_evals - distinct_at_start : 0; }
};

// A finding about a trace.  `line` is the source line for line-level
// findings and 0 for run-level ones, which name their run's index in `run`.
struct Diagnostic {
    std::size_t line = 0;
    std::string text;
    std::size_t run = 0;
};

struct SpanTotal {
    std::uint64_t count = 0;
    double seconds = 0.0;
};

struct TraceRuns {
    std::size_t nonblank_lines = 0;  // events plus unparseable lines
    double last_t = 0.0;             // timestamp of the last event
    std::map<std::string, std::uint64_t> counts;  // events by type
    std::map<std::string, SpanTotal> spans;       // span events by name
    // Mutation draws over all breed / generation events.
    std::uint64_t bias_draws = 0;
    std::uint64_t target_draws = 0;
    std::uint64_t uniform_draws = 0;
    std::uint64_t genes_mutated = 0;
    std::vector<RunWindow> runs;
    // Line-level findings in line order: unparseable lines, run-scoped
    // events outside a run, and malformed or out-of-sequence births.
    std::vector<Diagnostic> issues;
};

TraceRuns fold_runs(const TraceFile& file);

// `issues` followed by the run-level invariants above, run by run.  A run
// without run_end is a finding when `require_run_end`, and skipped
// otherwise.  Empty when the trace is consistent.
std::vector<Diagnostic> check_runs(const TraceRuns& trace, bool require_run_end = true);

// What does not take part in comparing two traces of the same seeded
// search: readings of how fast or where a value was computed, never of
// what it is.  That is wall clock, the environment (worker count, output
// paths, the server's job and request ids), store state (a warm store
// answers what a cold run computed, eliding its evaluation attempts) and
// the thread schedule (in-flight dedup waits).  Each entry is a field
// name skipped in every event, except the one marked `event`, an event
// type dropped from both sides.  The timestamp `t` never takes part.
struct DiffSkip {
    std::string_view name;
    bool event = false;
};
inline constexpr DiffSkip k_diff_skips[] = {
    {"seconds"}, {"busy_seconds"}, {"eval_seconds"},        // wall clock
    {"workers"}, {"path"}, {"job_id"}, {"request_id"},      // environment
    {"store_hits"}, {"store_misses"}, {"attempts"},         // store state
    {"waits"}, {"inflight_waits"},                          // thread schedule
    {"job_summary", true},  // server-only epilogue; check_runs reconciles it
};

// Compares two traces event by event, in order, leaving out k_diff_skips:
// the event type first, then every remaining field in order, values as
// written to the trace.  Returns the first difference, or nullopt when the
// traces agree.  Its text names both lines, the event type, the field and
// both values; `line` is the base's line, or the candidate's when only the
// candidate has the event.
std::optional<Diagnostic> compare_traces(const TraceFile& base, const TraceFile& cand);

}  // namespace nautilus::obs
