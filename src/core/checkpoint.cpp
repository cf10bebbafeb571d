#include "core/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/atomic_file.hpp"

namespace nautilus {

namespace {

std::uint64_t double_bits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

double bits_double(std::uint64_t b)
{
    return std::bit_cast<double>(b);
}

void write_genome(std::ostream& out, const Genome& g)
{
    out << g.size();
    for (std::uint32_t gene : g.genes()) out << ' ' << gene;
}

void write_values(std::ostream& out, const std::vector<double>& values)
{
    out << values.size();
    for (double v : values) out << ' ' << double_bits(v);
}

// Token-stream reader with keyword checking; throws std::runtime_error with
// the offending path and token on any mismatch.
class Reader {
public:
    Reader(std::istream& in, std::string path) : in_(in), path_(std::move(path)) {}

    void expect(const char* keyword)
    {
        std::string token;
        if (!(in_ >> token) || token != keyword)
            fail(std::string{"expected '"} + keyword + "', got '" + token + "'");
    }

    std::uint64_t u64()
    {
        std::uint64_t v = 0;
        if (!(in_ >> v)) fail("expected integer");
        return v;
    }

    std::size_t size()
    {
        return static_cast<std::size_t>(u64());
    }

    std::uint32_t u32()
    {
        return static_cast<std::uint32_t>(u64());
    }

    double dbl() { return bits_double(u64()); }

    bool boolean() { return u64() != 0; }

    Genome genome()
    {
        const std::size_t n = size();
        std::vector<std::uint32_t> genes;
        genes.reserve(n);
        for (std::size_t i = 0; i < n; ++i) genes.push_back(u32());
        return Genome{std::move(genes)};
    }

    std::vector<double> values()
    {
        const std::size_t n = size();
        std::vector<double> out;
        out.reserve(n);
        for (std::size_t i = 0; i < n; ++i) out.push_back(dbl());
        return out;
    }

    std::vector<obs::GeneOrigin> origins()
    {
        std::string codes;
        if (!(in_ >> codes)) fail("expected origin codes");
        std::vector<obs::GeneOrigin> out;
        if (!obs::origins_from_codes(codes, out)) fail("bad origin codes '" + codes + "'");
        return out;
    }

    // The pipeline sections shared by both engines; `value(v)` reads one
    // cached result.
    template <typename Value, typename ReadValue>
    void eval_state(EvalState<Value>& s, ReadValue value)
    {
        expect("cache");
        s.cache.resize(size());
        for (auto& [genome, v] : s.cache) {
            genome = this->genome();
            value(v);
        }
        expect("counters");
        s.distinct = size();
        s.calls = size();
        expect("quarantine");
        s.quarantine.resize(size());
        for (std::uint64_t& key : s.quarantine) key = u64();
        expect("fault");
        FaultCounters& f = s.fault;
        for (std::uint64_t* c : {&f.attempts, &f.retries, &f.failures, &f.timeouts,
                                 &f.quarantined, &f.penalties})
            *c = u64();
    }

    [[noreturn]] void fail(const std::string& what) const
    {
        throw std::runtime_error("checkpoint " + path_ + ": " + what);
    }

private:
    std::istream& in_;
    std::string path_;
};

// Writes the pipeline sections shared by both engines; `value(v)` writes
// one cached result after its genome.
template <typename Value, typename WriteValue>
void write_eval_state(std::ostream& out, const EvalState<Value>& s, WriteValue value)
{
    out << "cache " << s.cache.size() << '\n';
    for (const auto& [genome, v] : s.cache) {
        write_genome(out, genome);
        value(v);
        out << '\n';
    }
    out << "counters " << s.distinct << ' ' << s.calls << '\n';
    out << "quarantine " << s.quarantine.size();
    for (std::uint64_t key : s.quarantine) out << ' ' << key;
    const FaultCounters& f = s.fault;
    out << "\nfault " << f.attempts << ' ' << f.retries << ' ' << f.failures << ' '
        << f.timeouts << ' ' << f.quarantined << ' ' << f.penalties << '\n';
}

// Throws naming `section` and the index of the first of `items` whose
// genome (`genome_of(item)`) does not fit `space`.
template <typename Items, typename GenomeOf>
void check_fit(const ParameterSpace& space, const std::string& path, const char* section,
               const Items& items, GenomeOf genome_of)
{
    for (std::size_t i = 0; i < items.size(); ++i)
        if (!genome_of(items[i]).compatible_with(space))
            throw std::runtime_error("checkpoint " + path + ": " + section + " genome " +
                                     std::to_string(i) + " does not fit the space");
}

constexpr auto itself = [](const Genome& g) -> const Genome& { return g; };
constexpr auto cached = [](const auto& entry) -> const Genome& { return entry.first; };

void commit(const std::string& path, const std::string& content)
{
    // Full durability discipline (tmp + fsync + rename + directory fsync);
    // the bare rename used previously could surface a zero-length or torn
    // checkpoint after a crash because the payload was never fsync'd.
    atomic_write_file(path, content);
}

}  // namespace

void save_checkpoint(const std::string& path, const GaCheckpoint& cp)
{
    std::ostringstream out;
    out << "nautilus-checkpoint " << k_checkpoint_version << " ga\n";
    out << "config " << cp.config_hash << ' ' << cp.seed << ' ' << cp.generation << '\n';
    out << "rng " << cp.rng_state[0] << ' ' << cp.rng_state[1] << ' ' << cp.rng_state[2]
        << ' ' << cp.rng_state[3] << '\n';
    out << "best " << (cp.have_best ? 1 : 0) << ' ' << (cp.best_eval.feasible ? 1 : 0)
        << ' ' << double_bits(cp.best_eval.value) << ' ' << double_bits(cp.best_so_far)
        << ' ' << cp.stall << ' ';
    write_genome(out, cp.best_genome);
    out << '\n';
    out << "history " << cp.history.size() << '\n';
    for (const GenerationStats& s : cp.history) {
        out << s.generation << ' ' << double_bits(s.best) << ' ' << double_bits(s.mean)
            << ' ' << double_bits(s.worst) << ' ' << s.feasible << ' '
            << double_bits(s.best_so_far) << ' ' << s.distinct_evals << '\n';
    }
    out << "curve " << cp.curve.size() << '\n';
    for (const CurvePoint& p : cp.curve)
        out << double_bits(p.evals) << ' ' << double_bits(p.best) << '\n';
    out << "population " << cp.population.size() << '\n';
    for (const Genome& g : cp.population) {
        write_genome(out, g);
        out << '\n';
    }
    write_eval_state(out, cp, [&](const Evaluation& e) {
        out << ' ' << (e.feasible ? 1 : 0) << ' ' << double_bits(e.value);
    });
    out << "lineage " << (cp.have_lineage ? 1 : 0) << '\n';
    if (cp.have_lineage) {
        out << "slots " << cp.lineage.slot_ids.size();
        for (std::uint64_t id : cp.lineage.slot_ids) out << ' ' << id;
        out << '\n';
        out << "births " << cp.lineage.next_id << ' ' << cp.lineage.last_improved << ' '
            << cp.lineage.records.size() << '\n';
        for (const obs::BirthRecord& rec : cp.lineage.records) {
            out << rec.id << ' ' << rec.parent_a << ' ' << rec.parent_b << ' '
                << rec.generation << ' '
                << static_cast<unsigned>(static_cast<std::uint8_t>(rec.op)) << ' '
                << (rec.survived ? 1 : 0) << ' ' << (rec.improved ? 1 : 0) << ' '
                << obs::origin_codes(rec.origins) << '\n';
        }
    }
    out << "end\n";
    commit(path, out.str());
}

void save_checkpoint(const std::string& path, const Nsga2Checkpoint& cp)
{
    std::ostringstream out;
    out << "nautilus-checkpoint " << k_checkpoint_version << " nsga2\n";
    out << "config " << cp.config_hash << ' ' << cp.seed << ' ' << cp.generation << ' '
        << cp.objectives << '\n';
    out << "rng " << cp.rng_state[0] << ' ' << cp.rng_state[1] << ' ' << cp.rng_state[2]
        << ' ' << cp.rng_state[3] << '\n';
    out << "population " << cp.population.size() << '\n';
    for (std::size_t i = 0; i < cp.population.size(); ++i) {
        write_genome(out, cp.population[i]);
        out << ' ';
        write_values(out, cp.population_values[i]);
        out << '\n';
    }
    out << "archive " << cp.archive.size() << '\n';
    for (std::size_t i = 0; i < cp.archive.size(); ++i) {
        write_genome(out, cp.archive[i]);
        out << ' ';
        write_values(out, cp.archive_values[i]);
        out << '\n';
    }
    write_eval_state(out, cp, [&](const ObjectiveValues& v) {
        out << ' ' << (v.has_value() ? 1 : 0);
        if (v.has_value()) {
            out << ' ';
            write_values(out, *v);
        }
    });
    out << "end\n";
    commit(path, out.str());
}

std::string checkpoint_engine(const std::string& path)
{
    std::ifstream in{path};
    if (!in) throw std::runtime_error("checkpoint " + path + ": cannot open");
    Reader r{in, path};
    r.expect("nautilus-checkpoint");
    const std::uint64_t version = r.u64();
    if (version != k_checkpoint_version)
        r.fail("unsupported version " + std::to_string(version) + " (this build reads " +
               std::to_string(k_checkpoint_version) + ")");
    std::string engine;
    if (!(in >> engine) || (engine != "ga" && engine != "nsga2"))
        r.fail("unknown engine tag '" + engine + "'");
    return engine;
}

GaCheckpoint load_ga_checkpoint(const std::string& path)
{
    std::ifstream in{path};
    if (!in) throw std::runtime_error("checkpoint " + path + ": cannot open");
    Reader r{in, path};
    r.expect("nautilus-checkpoint");
    if (const std::uint64_t version = r.u64(); version != k_checkpoint_version)
        r.fail("unsupported version " + std::to_string(version));
    r.expect("ga");

    GaCheckpoint cp;
    r.expect("config");
    cp.config_hash = r.u64();
    cp.seed = r.u64();
    cp.generation = r.size();
    r.expect("rng");
    for (auto& word : cp.rng_state) word = r.u64();
    r.expect("best");
    cp.have_best = r.boolean();
    cp.best_eval.feasible = r.boolean();
    cp.best_eval.value = r.dbl();
    cp.best_so_far = r.dbl();
    cp.stall = r.size();
    cp.best_genome = r.genome();
    r.expect("history");
    cp.history.resize(r.size());
    for (GenerationStats& s : cp.history) {
        s.generation = r.size();
        s.best = r.dbl();
        s.mean = r.dbl();
        s.worst = r.dbl();
        s.feasible = r.size();
        s.best_so_far = r.dbl();
        s.distinct_evals = r.size();
    }
    r.expect("curve");
    cp.curve.resize(r.size());
    for (CurvePoint& p : cp.curve) {
        p.evals = r.dbl();
        p.best = r.dbl();
    }
    r.expect("population");
    cp.population.resize(r.size());
    for (Genome& g : cp.population) g = r.genome();
    r.eval_state(cp, [&](Evaluation& e) {
        e.feasible = r.boolean();
        e.value = r.dbl();
    });
    r.expect("lineage");
    cp.have_lineage = r.boolean();
    if (cp.have_lineage) {
        r.expect("slots");
        cp.lineage.slot_ids.resize(r.size());
        for (std::uint64_t& id : cp.lineage.slot_ids) id = r.u64();
        r.expect("births");
        cp.lineage.next_id = r.u64();
        cp.lineage.last_improved = r.u64();
        cp.lineage.records.resize(r.size());
        for (obs::BirthRecord& rec : cp.lineage.records) {
            rec.id = r.u64();
            rec.parent_a = r.u64();
            rec.parent_b = r.u64();
            rec.generation = r.u64();
            const std::uint64_t op = r.u64();
            if (op >= obs::k_birth_op_count) r.fail("bad birth op");
            rec.op = static_cast<obs::BirthOp>(op);
            rec.survived = r.boolean();
            rec.improved = r.boolean();
            rec.origins = r.origins();
        }
    }
    r.expect("end");
    return cp;
}

Nsga2Checkpoint load_nsga2_checkpoint(const std::string& path)
{
    std::ifstream in{path};
    if (!in) throw std::runtime_error("checkpoint " + path + ": cannot open");
    Reader r{in, path};
    r.expect("nautilus-checkpoint");
    if (const std::uint64_t version = r.u64(); version != k_checkpoint_version)
        r.fail("unsupported version " + std::to_string(version));
    r.expect("nsga2");

    Nsga2Checkpoint cp;
    r.expect("config");
    cp.config_hash = r.u64();
    cp.seed = r.u64();
    cp.generation = r.size();
    cp.objectives = r.size();
    r.expect("rng");
    for (auto& word : cp.rng_state) word = r.u64();
    const auto check_arity = [&](const char* section, std::size_t index,
                                 const std::vector<double>& values) {
        if (values.size() != cp.objectives)
            r.fail(std::string{section} + " value " + std::to_string(index) + " has " +
                   std::to_string(values.size()) + " objectives, expected " +
                   std::to_string(cp.objectives));
    };
    const auto read_members = [&](const char* section, std::vector<Genome>& genomes,
                                  std::vector<std::vector<double>>& values) {
        r.expect(section);
        genomes.resize(r.size());
        values.resize(genomes.size());
        for (std::size_t i = 0; i < genomes.size(); ++i) {
            genomes[i] = r.genome();
            values[i] = r.values();
            check_arity(section, i, values[i]);
        }
    };
    read_members("population", cp.population, cp.population_values);
    read_members("archive", cp.archive, cp.archive_values);
    r.eval_state(cp, [&](ObjectiveValues& v) {
        if (r.boolean()) v = r.values();
        else v = std::nullopt;
    });
    for (std::size_t i = 0; i < cp.cache.size(); ++i)
        if (cp.cache[i].second) check_arity("cache", i, *cp.cache[i].second);
    r.expect("end");
    return cp;
}

void check_genomes(const GaCheckpoint& cp, const ParameterSpace& space, const std::string& path)
{
    check_fit(space, path, "population", cp.population, itself);
    if (cp.have_best) check_fit(space, path, "best", std::vector{cp.best_genome}, itself);
    check_fit(space, path, "cache", cp.cache, cached);
}

void check_genomes(const Nsga2Checkpoint& cp, const ParameterSpace& space,
                   const std::string& path)
{
    check_fit(space, path, "population", cp.population, itself);
    check_fit(space, path, "archive", cp.archive, itself);
    check_fit(space, path, "cache", cp.cache, cached);
}

}  // namespace nautilus
