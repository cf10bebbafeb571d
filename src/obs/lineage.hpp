#pragma once
// Search lineage & hint attribution (DESIGN.md §11).
//
// A LineageRecorder captures, for every genome an engine materializes, a
// BirthRecord: parent ids, the operator that created it, and a per-gene
// origin class (inherited / crossover-inherited / uniform / bias / target /
// repair).  Recording is pure observation — it never draws from the RNG, so
// the bit-exact determinism contract (DESIGN.md §10) is unaffected whether
// lineage is on or off.  At the end of a run the recorder computes a
// per-hint-class efficacy summary (offspring produced → survived →
// improved-best) and walks the winning genome's ancestry to attribute each
// final gene to the terminal draw class that produced its value.
//
// This header is part of nautilus_obs and must not include core headers.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace nautilus::obs {

// Where one gene of a newborn genome came from.  `fresh` covers random
// initialization and restored/unknown ancestry; `parent_a` is the parent the
// child was copied from; `parent_b` marks genes exchanged by crossover.
enum class GeneOrigin : std::uint8_t {
    fresh = 0,
    parent_a,
    parent_b,
    uniform,
    bias,
    target,
    repair,
};

inline constexpr std::size_t k_gene_origin_count = 7;

char gene_origin_code(GeneOrigin origin);         // 'f','a','x','u','b','t','r'
const char* gene_origin_name(GeneOrigin origin);  // "fresh", "parent_a", ...
bool gene_origin_from_code(char code, GeneOrigin& out);

// Compact per-gene rendering used by birth events and checkpoints, e.g.
// "aaxubt".  An empty origin vector renders as "-".
std::string origin_codes(std::span<const GeneOrigin> origins);
bool origins_from_codes(std::string_view codes, std::vector<GeneOrigin>& out);

// How a genome came to exist.
enum class BirthOp : std::uint8_t {
    init = 0,   // random initialization at generation 0
    resume,     // root synthesized when resuming without stored lineage
    elite,      // carried unchanged by elitism
    mutation,   // bred without a crossover draw (mutation only)
    crossover,  // bred with crossover, then mutated
};

inline constexpr std::size_t k_birth_op_count = 5;

const char* birth_op_name(BirthOp op);
bool birth_op_from_name(std::string_view name, BirthOp& out);

inline constexpr std::uint64_t k_no_parent = ~std::uint64_t{0};

struct BirthRecord {
    std::uint64_t id = 0;
    std::uint64_t parent_a = k_no_parent;  // the parent the child copies
    std::uint64_t parent_b = k_no_parent;  // the crossover partner
    std::uint64_t generation = 0;
    BirthOp op = BirthOp::init;
    std::vector<GeneOrigin> origins;  // one entry per gene; empty for elites
    bool survived = false;  // selected into a later generation / accepted
    bool improved = false;  // advanced best-so-far or joined the final front
};

// Everything needed to continue lineage accounting across checkpoint/resume.
struct LineageState {
    std::uint64_t next_id = 0;
    std::uint64_t last_improved = k_no_parent;  // current best's birth id
    std::vector<std::uint64_t> slot_ids;  // birth id of each population slot
    std::vector<BirthRecord> records;     // dense, records[i].id == i
};

// End-of-run accounting.  Offspring-level efficacy counts a birth toward a
// draw class when at least one of its genes used that class; winner
// attribution walks each winning gene back through parent links to the
// terminal class that last set its value.
struct LineageSummary {
    std::uint64_t births = 0;
    std::uint64_t births_at_start = 0;  // restored from a checkpoint
    std::uint64_t roots = 0;
    std::uint64_t elites = 0;
    std::uint64_t mutation_births = 0;
    std::uint64_t crossover_births = 0;
    std::uint64_t survived = 0;
    std::uint64_t improved = 0;
    std::uint64_t genes_fresh = 0;
    std::uint64_t genes_inherited = 0;  // parent_a
    std::uint64_t genes_crossed = 0;    // parent_b
    std::uint64_t genes_uniform = 0;
    std::uint64_t genes_bias = 0;
    std::uint64_t genes_target = 0;
    std::uint64_t genes_repair = 0;
    std::uint64_t offspring_uniform = 0;
    std::uint64_t offspring_bias = 0;
    std::uint64_t offspring_target = 0;
    std::uint64_t survived_uniform = 0;
    std::uint64_t survived_bias = 0;
    std::uint64_t survived_target = 0;
    std::uint64_t improved_uniform = 0;
    std::uint64_t improved_bias = 0;
    std::uint64_t improved_target = 0;
    bool have_winner = false;
    std::uint64_t winner = 0;        // first winner id
    std::uint64_t winner_count = 0;  // GA: 1; NSGA-II: final front size
    std::uint64_t winner_genes = 0;  // summed over all winners
    std::uint64_t winner_fresh = 0;
    std::uint64_t winner_uniform = 0;
    std::uint64_t winner_bias = 0;
    std::uint64_t winner_target = 0;
    std::uint64_t winner_repair = 0;
    std::uint64_t winner_depth = 0;  // longest ancestry walk, in hops
};

// The one field list of LineageSummary, in serialization order.  It drives
// the `lineage_summary` trace event, /lineage's `last_run`, the trace
// reader's rebuild of a summary and the /metrics gauges.  Winner fields
// exist only when have_winner is set; `gauge` fields are also exported to
// /metrics (as `last_<name>`, winner fields under their own name).
struct LineageSummaryField {
    const char* name;
    std::uint64_t LineageSummary::*member;
    bool winner;
    bool gauge;

    bool present(const LineageSummary& s) const { return !winner || s.have_winner; }
};

inline constexpr LineageSummaryField k_lineage_summary_fields[] = {
    {"births", &LineageSummary::births, false, true},
    {"births_at_start", &LineageSummary::births_at_start, false, false},
    {"roots", &LineageSummary::roots, false, false},
    {"elites", &LineageSummary::elites, false, false},
    {"mutation_births", &LineageSummary::mutation_births, false, false},
    {"crossover_births", &LineageSummary::crossover_births, false, false},
    {"survived", &LineageSummary::survived, false, true},
    {"improved", &LineageSummary::improved, false, true},
    {"genes_fresh", &LineageSummary::genes_fresh, false, false},
    {"genes_inherited", &LineageSummary::genes_inherited, false, false},
    {"genes_crossed", &LineageSummary::genes_crossed, false, false},
    {"genes_uniform", &LineageSummary::genes_uniform, false, false},
    {"genes_bias", &LineageSummary::genes_bias, false, false},
    {"genes_target", &LineageSummary::genes_target, false, false},
    {"genes_repair", &LineageSummary::genes_repair, false, false},
    {"offspring_uniform", &LineageSummary::offspring_uniform, false, true},
    {"offspring_bias", &LineageSummary::offspring_bias, false, true},
    {"offspring_target", &LineageSummary::offspring_target, false, true},
    {"survived_uniform", &LineageSummary::survived_uniform, false, true},
    {"survived_bias", &LineageSummary::survived_bias, false, true},
    {"survived_target", &LineageSummary::survived_target, false, true},
    {"improved_uniform", &LineageSummary::improved_uniform, false, true},
    {"improved_bias", &LineageSummary::improved_bias, false, true},
    {"improved_target", &LineageSummary::improved_target, false, true},
    {"winner", &LineageSummary::winner, true, false},
    {"winner_count", &LineageSummary::winner_count, true, false},
    {"winner_genes", &LineageSummary::winner_genes, true, true},
    {"winner_fresh", &LineageSummary::winner_fresh, true, true},
    {"winner_uniform", &LineageSummary::winner_uniform, true, true},
    {"winner_bias", &LineageSummary::winner_bias, true, true},
    {"winner_target", &LineageSummary::winner_target, true, true},
    {"winner_repair", &LineageSummary::winner_repair, true, true},
    {"winner_depth", &LineageSummary::winner_depth, true, true},
};

// Pure summary computation over a dense record table (records[i].id == i),
// shared by the recorder and by tools that rebuild records from a trace.
LineageSummary summarize_lineage(std::span<const BirthRecord> records,
                                 std::span<const std::uint64_t> winners,
                                 std::uint64_t births_at_start);

class LineageTracker;

// Per-run recorder.  Single-threaded: engines mint births from the search
// loop only.  `tracer` (nullable) receives birth/lineage_summary events;
// `tracker` (nullable) is fed live counters for the /lineage endpoint.
class LineageRecorder {
public:
    LineageRecorder(const Tracer* tracer, LineageTracker* tracker, std::string engine);

    // Mint a parentless record (random init or resume without stored state).
    std::uint64_t on_root(std::uint64_t generation, BirthOp op, std::size_t genes);
    // Mint an elitism copy; the parent is marked survived.
    std::uint64_t on_elite(std::uint64_t parent, std::uint64_t generation);
    // Mint a bred child.  `parent_b` may be k_no_parent (local search).
    std::uint64_t on_child(std::uint64_t parent_a,
                           std::uint64_t parent_b,
                           bool crossed,
                           std::uint64_t generation,
                           std::vector<GeneOrigin> origins);
    void on_survived(std::uint64_t id);
    void on_improved(std::uint64_t id);

    std::uint64_t births() const { return next_id_; }
    std::uint64_t births_at_start() const { return births_at_start_; }
    const BirthRecord* record(std::uint64_t id) const;
    std::uint64_t last_improved() const { return last_improved_; }  // k_no_parent if none

    LineageState snapshot(const std::vector<std::uint64_t>& slot_ids) const;
    void restore(const LineageState& state);

    // Mark `winners` improved, compute the summary, emit the
    // `lineage_summary` trace event and feed the tracker.  Call once,
    // immediately before the run_end event.
    LineageSummary finish(std::span<const std::uint64_t> winners);

private:
    BirthRecord& mint(BirthOp op, std::uint64_t generation);
    void emit_birth(const BirthRecord& rec);

    const Tracer* tracer_;
    LineageTracker* tracker_;
    std::string engine_;
    std::uint64_t next_id_ = 0;
    std::uint64_t births_at_start_ = 0;
    std::uint64_t last_improved_ = k_no_parent;
    std::vector<BirthRecord> records_;
};

// Cumulative cross-run lineage counters served by /lineage and /metrics.
struct LineageCounters {
    std::uint64_t runs = 0;  // finished runs
    std::uint64_t births = 0;
    std::uint64_t roots = 0;
    std::uint64_t elites = 0;
    std::uint64_t mutation_births = 0;
    std::uint64_t crossover_births = 0;
    std::uint64_t survived = 0;
    std::uint64_t improved = 0;
    std::uint64_t genes_fresh = 0;
    std::uint64_t genes_inherited = 0;
    std::uint64_t genes_crossed = 0;
    std::uint64_t genes_uniform = 0;
    std::uint64_t genes_bias = 0;
    std::uint64_t genes_target = 0;
    std::uint64_t genes_repair = 0;
    bool have_last = false;        // a run has finished
    std::string engine;            // engine of the last finished run
    LineageSummary last;           // last finished run's summary
};

// The cumulative counters of LineageCounters, in serialization order
// (/lineage JSON and the /metrics gauges).
struct LineageCounterField {
    const char* name;
    std::uint64_t LineageCounters::*member;
};

inline constexpr LineageCounterField k_lineage_counter_fields[] = {
    {"runs", &LineageCounters::runs},
    {"births", &LineageCounters::births},
    {"roots", &LineageCounters::roots},
    {"elites", &LineageCounters::elites},
    {"mutation_births", &LineageCounters::mutation_births},
    {"crossover_births", &LineageCounters::crossover_births},
    {"survived", &LineageCounters::survived},
    {"improved", &LineageCounters::improved},
    {"genes_fresh", &LineageCounters::genes_fresh},
    {"genes_inherited", &LineageCounters::genes_inherited},
    {"genes_crossed", &LineageCounters::genes_crossed},
    {"genes_uniform", &LineageCounters::genes_uniform},
    {"genes_bias", &LineageCounters::genes_bias},
    {"genes_target", &LineageCounters::genes_target},
    {"genes_repair", &LineageCounters::genes_repair},
};

std::string to_json(const LineageCounters& counters);

// Thread-safe sink shared between the recording engine thread and HTTP
// scrape threads.  Counter updates are relaxed atomics; the last-run summary
// block is guarded by a mutex (same discipline as ProgressTracker).
class LineageTracker {
public:
    void on_birth(BirthOp op, std::span<const GeneOrigin> origins);
    void on_survived();
    void on_improved();
    void on_run_finish(const std::string& engine, const LineageSummary& summary);

    LineageCounters counters() const;

private:
    std::atomic<std::uint64_t> births_{0};
    std::atomic<std::uint64_t> roots_{0};
    std::atomic<std::uint64_t> elites_{0};
    std::atomic<std::uint64_t> mutation_births_{0};
    std::atomic<std::uint64_t> crossover_births_{0};
    std::atomic<std::uint64_t> survived_{0};
    std::atomic<std::uint64_t> improved_{0};
    std::atomic<std::uint64_t> genes_[k_gene_origin_count] = {};

    mutable std::mutex mutex_;  // guards runs_/engine_/last_/have_last_
    std::uint64_t runs_ = 0;
    std::string engine_;
    LineageSummary last_;
    bool have_last_ = false;
};

}  // namespace nautilus::obs
