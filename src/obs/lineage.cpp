#include "obs/lineage.hpp"

#include <algorithm>
#include <utility>

#include "obs/json.hpp"

namespace nautilus::obs {

namespace {

constexpr char k_origin_codes[k_gene_origin_count] = {'f', 'a', 'x', 'u', 'b', 't', 'r'};
constexpr const char* k_origin_names[k_gene_origin_count] = {
    "fresh", "parent_a", "parent_b", "uniform", "bias", "target", "repair"};
constexpr const char* k_op_names[k_birth_op_count] = {
    "init", "resume", "elite", "mutation", "crossover"};

}  // namespace

char gene_origin_code(GeneOrigin origin)
{
    const auto i = static_cast<std::size_t>(origin);
    return i < k_gene_origin_count ? k_origin_codes[i] : '?';
}

const char* gene_origin_name(GeneOrigin origin)
{
    const auto i = static_cast<std::size_t>(origin);
    return i < k_gene_origin_count ? k_origin_names[i] : "unknown";
}

bool gene_origin_from_code(char code, GeneOrigin& out)
{
    for (std::size_t i = 0; i < k_gene_origin_count; ++i) {
        if (k_origin_codes[i] == code) {
            out = static_cast<GeneOrigin>(i);
            return true;
        }
    }
    return false;
}

std::string origin_codes(std::span<const GeneOrigin> origins)
{
    if (origins.empty()) return "-";
    std::string out;
    out.reserve(origins.size());
    for (const GeneOrigin o : origins) out += gene_origin_code(o);
    return out;
}

bool origins_from_codes(std::string_view codes, std::vector<GeneOrigin>& out)
{
    out.clear();
    if (codes == "-") return true;
    out.reserve(codes.size());
    for (const char c : codes) {
        GeneOrigin o{};
        if (!gene_origin_from_code(c, o)) return false;
        out.push_back(o);
    }
    return true;
}

const char* birth_op_name(BirthOp op)
{
    const auto i = static_cast<std::size_t>(op);
    return i < k_birth_op_count ? k_op_names[i] : "unknown";
}

bool birth_op_from_name(std::string_view name, BirthOp& out)
{
    for (std::size_t i = 0; i < k_birth_op_count; ++i) {
        if (name == k_op_names[i]) {
            out = static_cast<BirthOp>(i);
            return true;
        }
    }
    return false;
}

LineageSummary summarize_lineage(std::span<const BirthRecord> records,
                                 std::span<const std::uint64_t> winners,
                                 std::uint64_t births_at_start)
{
    LineageSummary s;
    s.births = records.size();
    s.births_at_start = births_at_start;
    for (const BirthRecord& r : records) {
        switch (r.op) {
        case BirthOp::init:
        case BirthOp::resume: ++s.roots; break;
        case BirthOp::elite: ++s.elites; break;
        case BirthOp::mutation: ++s.mutation_births; break;
        case BirthOp::crossover: ++s.crossover_births; break;
        }
        if (r.survived) ++s.survived;
        if (r.improved) ++s.improved;
        bool has_uniform = false, has_bias = false, has_target = false;
        for (const GeneOrigin o : r.origins) {
            switch (o) {
            case GeneOrigin::fresh: ++s.genes_fresh; break;
            case GeneOrigin::parent_a: ++s.genes_inherited; break;
            case GeneOrigin::parent_b: ++s.genes_crossed; break;
            case GeneOrigin::uniform: ++s.genes_uniform; has_uniform = true; break;
            case GeneOrigin::bias: ++s.genes_bias; has_bias = true; break;
            case GeneOrigin::target: ++s.genes_target; has_target = true; break;
            case GeneOrigin::repair: ++s.genes_repair; break;
            }
        }
        if (has_uniform) {
            ++s.offspring_uniform;
            if (r.survived) ++s.survived_uniform;
            if (r.improved) ++s.improved_uniform;
        }
        if (has_bias) {
            ++s.offspring_bias;
            if (r.survived) ++s.survived_bias;
            if (r.improved) ++s.improved_bias;
        }
        if (has_target) {
            ++s.offspring_target;
            if (r.survived) ++s.survived_target;
            if (r.improved) ++s.improved_target;
        }
    }

    // Winner attribution: walk each winning gene back through parent links
    // until a terminal (non-inherited) origin class is reached.  Parent ids
    // are strictly smaller than child ids, so the walk always terminates.
    for (const std::uint64_t w : winners) {
        if (w >= records.size()) continue;
        if (!s.have_winner) {
            s.have_winner = true;
            s.winner = w;
        }
        ++s.winner_count;
        const BirthRecord& winner = records[w];
        // Elites carry no origin vector; attribute through their parent.
        const std::size_t genes =
            winner.origins.empty() && winner.parent_a != k_no_parent &&
                    winner.parent_a < records.size()
                ? records[winner.parent_a].origins.size()
                : winner.origins.size();
        for (std::size_t g = 0; g < genes; ++g) {
            const BirthRecord* r = &winner;
            std::uint64_t depth = 0;
            for (;;) {
                const GeneOrigin o =
                    g < r->origins.size() ? r->origins[g] : GeneOrigin::parent_a;
                std::uint64_t next = k_no_parent;
                if (o == GeneOrigin::parent_a) next = r->parent_a;
                else if (o == GeneOrigin::parent_b) next = r->parent_b;
                const bool walkable =
                    next != k_no_parent && next < records.size() && next < r->id;
                if (!walkable) {
                    ++s.winner_genes;
                    switch (o) {
                    case GeneOrigin::uniform: ++s.winner_uniform; break;
                    case GeneOrigin::bias: ++s.winner_bias; break;
                    case GeneOrigin::target: ++s.winner_target; break;
                    case GeneOrigin::repair: ++s.winner_repair; break;
                    default: ++s.winner_fresh; break;
                    }
                    break;
                }
                r = &records[next];
                ++depth;
            }
            s.winner_depth = std::max(s.winner_depth, depth);
        }
    }
    return s;
}

LineageRecorder::LineageRecorder(const Tracer* tracer,
                                 LineageTracker* tracker,
                                 std::string engine)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      tracker_(tracker),
      engine_(std::move(engine))
{
}

BirthRecord& LineageRecorder::mint(BirthOp op, std::uint64_t generation)
{
    BirthRecord& rec = records_.emplace_back();
    rec.id = next_id_++;
    rec.generation = generation;
    rec.op = op;
    return rec;
}

std::uint64_t LineageRecorder::on_root(std::uint64_t generation,
                                       BirthOp op,
                                       std::size_t genes)
{
    BirthRecord& rec = mint(op, generation);
    rec.origins.assign(genes, GeneOrigin::fresh);
    emit_birth(rec);
    return rec.id;
}

std::uint64_t LineageRecorder::on_elite(std::uint64_t parent, std::uint64_t generation)
{
    BirthRecord& rec = mint(BirthOp::elite, generation);
    rec.parent_a = parent;
    emit_birth(rec);
    const std::uint64_t id = rec.id;  // on_survived may touch records_
    on_survived(parent);
    return id;
}

std::uint64_t LineageRecorder::on_child(std::uint64_t parent_a,
                                        std::uint64_t parent_b,
                                        bool crossed,
                                        std::uint64_t generation,
                                        std::vector<GeneOrigin> origins)
{
    BirthRecord& rec = mint(crossed ? BirthOp::crossover : BirthOp::mutation, generation);
    rec.parent_a = parent_a;
    rec.parent_b = parent_b;
    rec.origins = std::move(origins);
    emit_birth(rec);
    return rec.id;
}

void LineageRecorder::on_survived(std::uint64_t id)
{
    if (id >= records_.size()) return;
    BirthRecord& rec = records_[id];
    if (rec.survived) return;
    rec.survived = true;
    if (tracker_ != nullptr) tracker_->on_survived();
}

void LineageRecorder::on_improved(std::uint64_t id)
{
    if (id >= records_.size()) return;
    last_improved_ = id;
    BirthRecord& rec = records_[id];
    if (rec.improved) return;
    rec.improved = true;
    if (tracker_ != nullptr) tracker_->on_improved();
}

const BirthRecord* LineageRecorder::record(std::uint64_t id) const
{
    return id < records_.size() ? &records_[id] : nullptr;
}

LineageState LineageRecorder::snapshot(const std::vector<std::uint64_t>& slot_ids) const
{
    LineageState state;
    state.next_id = next_id_;
    state.last_improved = last_improved_;
    state.slot_ids = slot_ids;
    state.records = records_;
    return state;
}

void LineageRecorder::restore(const LineageState& state)
{
    records_ = state.records;
    next_id_ = state.next_id;
    births_at_start_ = state.next_id;
    last_improved_ = state.last_improved;
}

void LineageRecorder::emit_birth(const BirthRecord& rec)
{
    if (tracker_ != nullptr) tracker_->on_birth(rec.op, rec.origins);
    if (tracer_ == nullptr) return;
    TraceEvent event{"birth"};
    event.add("id", FieldValue{rec.id});
    event.add("gen", FieldValue{rec.generation});
    event.add("op", birth_op_name(rec.op));
    if (rec.parent_a != k_no_parent) event.add("pa", FieldValue{rec.parent_a});
    if (rec.parent_b != k_no_parent) event.add("pb", FieldValue{rec.parent_b});
    event.add("origins", FieldValue{origin_codes(rec.origins)});
    tracer_->emit(std::move(event));
}

LineageSummary LineageRecorder::finish(std::span<const std::uint64_t> winners)
{
    for (const std::uint64_t w : winners) on_improved(w);
    const LineageSummary summary = summarize_lineage(records_, winners, births_at_start_);
    if (tracer_ != nullptr) {
        TraceEvent event{"lineage_summary"};
        event.add("engine", engine_.c_str());
        for (const LineageSummaryField& f : k_lineage_summary_fields)
            if (f.present(summary)) event.add(f.name, FieldValue{summary.*f.member});
        tracer_->emit(std::move(event));
    }
    if (tracker_ != nullptr) tracker_->on_run_finish(engine_, summary);
    return summary;
}

std::string to_json(const LineageCounters& counters)
{
    std::string out;
    out.reserve(1024);
    const auto field = [&out](const char* key, std::uint64_t value) {
        out += '"';
        out += key;
        out += "\":";
        out += std::to_string(value);
        out += ',';
    };
    out += '{';
    for (const LineageCounterField& f : k_lineage_counter_fields)
        field(f.name, counters.*f.member);
    out += "\"last_run\":";
    if (counters.have_last) {
        out += "{\"engine\":";
        json::append_string(out, counters.engine);
        out += ',';
        for (const LineageSummaryField& f : k_lineage_summary_fields)
            if (f.present(counters.last)) field(f.name, counters.last.*f.member);
        out.back() = '}';  // replace the trailing comma
    }
    else {
        out += "null";
    }
    out += '}';
    return out;
}

void LineageTracker::on_birth(BirthOp op, std::span<const GeneOrigin> origins)
{
    births_.fetch_add(1, std::memory_order_relaxed);
    switch (op) {
    case BirthOp::init:
    case BirthOp::resume: roots_.fetch_add(1, std::memory_order_relaxed); break;
    case BirthOp::elite: elites_.fetch_add(1, std::memory_order_relaxed); break;
    case BirthOp::mutation: mutation_births_.fetch_add(1, std::memory_order_relaxed); break;
    case BirthOp::crossover:
        crossover_births_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    std::uint64_t tally[k_gene_origin_count] = {};
    for (const GeneOrigin o : origins) {
        const auto i = static_cast<std::size_t>(o);
        if (i < k_gene_origin_count) ++tally[i];
    }
    for (std::size_t i = 0; i < k_gene_origin_count; ++i)
        if (tally[i] > 0) genes_[i].fetch_add(tally[i], std::memory_order_relaxed);
}

void LineageTracker::on_survived()
{
    survived_.fetch_add(1, std::memory_order_relaxed);
}

void LineageTracker::on_improved()
{
    improved_.fetch_add(1, std::memory_order_relaxed);
}

void LineageTracker::on_run_finish(const std::string& engine, const LineageSummary& summary)
{
    std::lock_guard lock{mutex_};
    ++runs_;
    engine_ = engine;
    last_ = summary;
    have_last_ = true;
}

LineageCounters LineageTracker::counters() const
{
    LineageCounters out;
    out.births = births_.load(std::memory_order_relaxed);
    out.roots = roots_.load(std::memory_order_relaxed);
    out.elites = elites_.load(std::memory_order_relaxed);
    out.mutation_births = mutation_births_.load(std::memory_order_relaxed);
    out.crossover_births = crossover_births_.load(std::memory_order_relaxed);
    out.survived = survived_.load(std::memory_order_relaxed);
    out.improved = improved_.load(std::memory_order_relaxed);
    out.genes_fresh = genes_[0].load(std::memory_order_relaxed);
    out.genes_inherited = genes_[1].load(std::memory_order_relaxed);
    out.genes_crossed = genes_[2].load(std::memory_order_relaxed);
    out.genes_uniform = genes_[3].load(std::memory_order_relaxed);
    out.genes_bias = genes_[4].load(std::memory_order_relaxed);
    out.genes_target = genes_[5].load(std::memory_order_relaxed);
    out.genes_repair = genes_[6].load(std::memory_order_relaxed);
    std::lock_guard lock{mutex_};
    out.runs = runs_;
    out.engine = engine_;
    out.last = last_;
    out.have_last = have_last_;
    return out;
}

}  // namespace nautilus::obs
