// nautilus_cli: command-line front end to the search engines.
//
//   nautilus_cli --ip fft --metric area_luts --direction min
//                --guidance strong --runs 20 --generations 80
//
// One invocation runs one mode, the first that applies:
//   job           --job SPEC.json runs one job spec standalone (the reference
//                 side of the server determinism gate)
//   serve         --serve PORT runs the job server: POST /jobs submits specs,
//                 GET /jobs/<id> reports progress, DELETE /jobs/<id> cancels;
//                 /metrics, /lineage, /status, /logs and /healthz report on
//                 the jobs it ran
//   characterize  --sensitivity or --save-dataset enumerates the space
//   flag          --pareto, or a checkpoint or fault flag: the flags become a
//                 job spec (engine nsga2 with --pareto, else ga), run as
//                 --job runs one
//   experiment    otherwise: baseline vs guided GA, averaged over --runs
//
// k_flags declares every flag once: its name, its value, the modes that
// read it and its help line.  Parsing, --help and the mode rule all read
// it; a flag the chosen mode does not read exits 2, naming the flag and
// the mode.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/eval_store.hpp"
#include "core/hint_estimator.hpp"
#include "core/nautilus.hpp"
#include "exp/experiment.hpp"
#include "ip/analysis.hpp"
#include "obs/http_server.hpp"
#include "obs/obs.hpp"
#include "serve/engine_factory.hpp"
#include "serve/scheduler.hpp"
#include "strict_number.hpp"

using namespace nautilus;
using ip::Metric;

namespace {

// The modes, in the order the first that applies wins.
namespace mode {
enum Mode : unsigned { job = 1, serve = 2, characterize = 4, flag = 8, experiment = 16 };
}
using mode::Mode;
using ModeSet = unsigned;
constexpr std::pair<Mode, const char*> k_modes[] = {
    {mode::job, "job"},
    {mode::serve, "serve"},
    {mode::characterize, "characterize"},
    {mode::flag, "flag"},
    {mode::experiment, "experiment"},
};

const char* mode_name(Mode mode)
{
    for (const auto& [m, name] : k_modes)
        if (m == mode) return name;
    return "?";
}

struct CliOptions {
    std::string ip = "router";
    std::string metric;
    std::string direction;
    std::string guidance = "none";
    std::uint64_t generations = 80;
    std::uint64_t population = 0;  // 0 = engine default
    std::uint64_t seed = 2015;
    std::uint64_t workers = 1;
    std::string trace_path;
    bool lineage = false;
    bool metrics = false;
    double progress_interval = 0.0;  // > 0 enables the stderr heartbeat
    std::string store;               // persistent evaluation store directory
    std::uint64_t store_max_bytes = 0;

    std::uint64_t runs = 10;
    std::uint64_t samples = 80;
    std::string dataset;

    bool sensitivity = false;
    std::string save_dataset;

    std::string pareto_metric;
    std::string checkpoint;
    std::uint64_t checkpoint_every = 1;
    std::string resume;
    std::uint64_t die_at_gen = 0;
    std::uint64_t retries = 1;
    double retry_backoff_ms = 0.0;
    double eval_timeout = 0.0;
    double chaos_fail = 0.0;
    double chaos_hang = 0.0;
    double chaos_flaky = 0.0;
    std::uint64_t chaos_seed = 0xc4a05;

    std::string job_spec;
    std::uint64_t serve_port = 0;
    std::uint64_t jobs_capacity = 4;
    std::string jobs_dir = ".";
    double serve_duration = 0.0;  // 0 = serve until killed
    std::string log_path;
    std::string log_level = "info";

    bool help = false;
    Mode mode = mode::experiment;

    bool chaotic() const { return chaos_fail > 0.0 || chaos_hang > 0.0 || chaos_flaky > 0.0; }
};

// `--progress [S]`: a number whose value may be left out.
struct OptionalSeconds {
    double CliOptions::*member;
    double bare;  // the value when none is given
};

// A flag's value kind, and the option parse() stores it in: a switch, free
// text, a non-negative integer, a finite number, or an optional number.
using Value = std::variant<bool CliOptions::*, std::string CliOptions::*,
                           std::uint64_t CliOptions::*, double CliOptions::*, OptionalSeconds>;

struct Flag {
    std::string_view name;
    Value value;
    ModeSet modes;          // the modes that read it
    std::string_view help;  // "ARG  text" for a flag with a value, else "text"
};

// The flag table's mode sets, lettered as --help prints them.
constexpr ModeSet J = mode::job, S = mode::serve, C = mode::characterize, F = mode::flag,
                  E = mode::experiment;

using O = CliOptions;
const Flag k_flags[] = {
    {"--ip", &O::ip, C | F | E, "IP  router, fft or network (default router)"},
    {"--metric", &O::metric, C | F | E, "NAME  metric to optimize (default per IP)"},
    {"--direction", &O::direction, F | E, "DIR  min or max (default per metric)"},
    {"--guidance", &O::guidance, F | E, "LEVEL  none, weak, strong or (e) estimated"},
    {"--generations", &O::generations, F | E, "N  generations (default 80)"},
    {"--population", &O::population, F | E, "N  population (default: 10 GA, 24 NSGA-II)"},
    {"--seed", &O::seed, F | E, "N  seed (default 2015)"},
    {"--workers", &O::workers, F | E, "N  evaluation threads; same results (default 1)"},
    {"--trace", &O::trace_path, J | F | E, "PATH  write a JSONL trace (see nautilus_trace)"},
    {"--lineage", &O::lineage, J | F | E, "print the lineage efficacy summary at the end"},
    {"--metrics", &O::metrics, J | F | E, "print the metrics registry at the end"},
    {"--progress", OptionalSeconds{&O::progress_interval, 5.0}, J | F | E,
     "[S]  progress line on stderr every S seconds (default 5)"},
    {"--store", &O::store, J | S | F | E, "PATH  persistent evaluation store"},
    {"--store-max-bytes", &O::store_max_bytes, J | S | F | E,
     "N  evict the oldest records past N bytes (default 0 = never)"},
    {"--runs", &O::runs, E, "N  runs to average (default 10)"},
    {"--samples", &O::samples, E, "N  samples for estimated guidance (default 80)"},
    {"--dataset", &O::dataset, E, "PATH  serve evaluations from a CSV dataset"},
    {"--sensitivity", &O::sensitivity, C, "print the sensitivity report"},
    {"--save-dataset", &O::save_dataset, C, "PATH  write the whole space as CSV"},
    {"--pareto", &O::pareto_metric, F, "METRIC2  map the METRIC x METRIC2 front"},
    {"--checkpoint", &O::checkpoint, J | F,
     "PATH  checkpoint here; --job resumes it, flag mode starts fresh"},
    {"--checkpoint-every", &O::checkpoint_every, J | F, "N  generations per checkpoint"},
    {"--resume", &O::resume, F, "PATH  resume this existing checkpoint bit-for-bit"},
    {"--die-at-gen", &O::die_at_gen, J | F, "N  checkpoint at generation N and stop"},
    {"--retries", &O::retries, J | F, "N  evaluation attempts per design point (default 1)"},
    {"--retry-backoff", &O::retry_backoff_ms, J | F, "MS  backoff before retry 2, doubling"},
    {"--eval-timeout", &O::eval_timeout, J | F, "S  per-attempt watchdog timeout"},
    {"--chaos-fail", &O::chaos_fail, J | F, "R  inject failures with probability R"},
    {"--chaos-hang", &O::chaos_hang, J | F, "R  inject hangs with probability R"},
    {"--chaos-flaky", &O::chaos_flaky, J | F, "R  perturb values with probability R"},
    {"--chaos-seed", &O::chaos_seed, J | F, "N  fault-injection seed (default 805381)"},
    {"--job", &O::job_spec, J, "SPEC.json  run one job spec standalone"},
    {"--serve", &O::serve_port, S, "PORT  run the job server (0 = any free port)"},
    {"--jobs-capacity", &O::jobs_capacity, S, "N  worker slots all jobs share (default 4)"},
    {"--jobs-dir", &O::jobs_dir, S, "PATH  job traces and checkpoints (default .)"},
    {"--serve-duration", &O::serve_duration, S, "S  exit after S seconds (default 0 = never)"},
    {"--log", &O::log_path, S, "PATH  append the server log (JSONL) to PATH"},
    {"--log-level", &O::log_level, S, "LEVEL  debug, info, warn or error (default info)"},
    {"--help", &O::help, J | S | C | F | E, "print this help"},
};

// "job, flag": the modes in `modes`.
std::string mode_list(ModeSet modes)
{
    std::string out;
    for (const auto& [m, name] : k_modes)
        if ((modes & m) != 0) out += std::string{out.empty() ? "" : ", "} + name;
    return out;
}

void print_help()
{
    std::printf("usage: nautilus_cli [FLAG ...]\n"
                "One invocation runs one mode, the first that applies: job (--job), serve\n"
                "(--serve), characterize (--sensitivity, --save-dataset), flag (--pareto,\n"
                "or a checkpoint or fault flag), else experiment.  MODES lists the modes\n"
                "that read a flag (j s c f e); any other flag exits 2.\n\n"
                "  %-24s %-6s\n",
                "FLAG", "MODES");
    for (const Flag& f : k_flags) {
        std::string left{f.name};
        std::string_view text = f.help;
        if (!std::holds_alternative<bool CliOptions::*>(f.value)) {
            const std::size_t gap = text.find("  ");
            left += ' ';
            left += text.substr(0, gap);
            text.remove_prefix(gap + 2);
        }
        std::string modes;
        for (const auto& [m, name] : k_modes) modes += (f.modes & m) != 0 ? name[0] : '-';
        std::printf("  %-24s %-6s %.*s\n", left.c_str(), modes.c_str(),
                    static_cast<int>(text.size()), text.data());
    }
}

[[noreturn]] void bad_usage(const std::string& why)
{
    std::fprintf(stderr, "%s\n(nautilus_cli --help lists every flag)\n", why.c_str());
    std::exit(2);
}

// The chosen mode: --job, then --serve, then characterization, then flag
// mode when a flag it reads and the experiment does not is given, else the
// experiment.
Mode mode_of(const std::vector<const Flag*>& given)
{
    const auto any = [&given](auto pred) {
        return std::any_of(given.begin(), given.end(),
                           [&](const Flag* f) { return pred(*f); });
    };
    if (any([](const Flag& f) { return f.name == "--job"; })) return mode::job;
    if (any([](const Flag& f) { return f.name == "--serve"; })) return mode::serve;
    if (any([](const Flag& f) { return f.modes == mode::characterize; }))
        return mode::characterize;
    if (any([](const Flag& f) { return (f.modes & (F | E)) == F; })) return mode::flag;
    return mode::experiment;
}

template <typename... F>
struct Overloaded : F... {
    using F::operator()...;
};

CliOptions parse(int argc, char** argv)
{
    CliOptions opt;
    std::vector<const Flag*> given;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i] == std::string_view{"-h"} ? "--help" : argv[i];
        const Flag* f = std::find_if(std::begin(k_flags), std::end(k_flags),
                                     [&](const Flag& x) { return x.name == arg; });
        if (f == std::end(k_flags)) bad_usage("unknown option: " + std::string{arg});
        given.push_back(f);

        const std::string name{f->name};
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) bad_usage(name + " needs a value");
            return argv[++i];
        };
        const auto invalid = [&](const std::string& text, const char* expected) {
            return "invalid value '" + text + "' for " + name + " (expected " + expected + ")";
        };
        const auto count = [&](const std::string& text) {
            const auto v = tools::parse_count(text);
            if (!v) bad_usage(invalid(text, "a non-negative integer"));
            return *v;
        };
        const auto number = [&](const std::string& text) {
            const auto v = tools::parse_number(text);
            if (!v) bad_usage(invalid(text, "a finite number"));
            return *v;
        };
        std::visit(Overloaded{
                       [&](bool O::*m) { opt.*m = true; },
                       [&](std::string O::*m) { opt.*m = value(); },
                       [&](std::uint64_t O::*m) { opt.*m = count(value()); },
                       [&](double O::*m) { opt.*m = number(value()); },
                       [&](OptionalSeconds s) {
                           const bool given_value = i + 1 < argc && argv[i + 1][0] >= '0' &&
                                                    argv[i + 1][0] <= '9';
                           opt.*s.member = given_value ? number(value()) : s.bare;
                       },
                   },
                   f->value);
    }
    if (opt.help) {
        print_help();
        std::exit(0);
    }

    // A flag the chosen mode would drop is an error, not a silent no-op.
    opt.mode = mode_of(given);
    std::string ignored;
    for (const Flag& f : k_flags)
        if ((f.modes & opt.mode) == 0 &&
            std::find(given.begin(), given.end(), &f) != given.end())
            ignored += std::string{ignored.empty() ? "" : "\n"} + std::string{f.name} +
                       " does not apply in " + mode_name(opt.mode) + " mode (read in " +
                       mode_list(f.modes) + " mode)";
    if (!ignored.empty()) bad_usage(ignored);

    // Checks on values and flag combinations.
    const auto reject_if = [](bool bad, const std::string& why) {
        if (bad) bad_usage(why);
    };
    reject_if(opt.ip != "router" && opt.ip != "fft" && opt.ip != "network",
              "invalid value '" + opt.ip + "' for --ip (expected router|fft|network)");
    for (const std::string& metric : {opt.metric, opt.pareto_metric})
        reject_if(!metric.empty() && !ip::metric_from_name(metric),
                  "unknown metric '" + metric + "'");
    reject_if(opt.workers == 0, "--workers must be at least 1");
    reject_if(opt.serve_port > 65535, "--serve port out of range (0..65535)");
    reject_if(!opt.direction.empty() && opt.direction != "min" && opt.direction != "max",
              "invalid value '" + opt.direction + "' for --direction (expected min|max)");
    reject_if(opt.guidance != "none" && opt.guidance != "weak" && opt.guidance != "strong" &&
                  opt.guidance != "estimated",
              "invalid value '" + opt.guidance +
                  "' for --guidance (expected none|weak|strong|estimated)");
    reject_if(!obs::log_level_from_name(opt.log_level),
              "unknown log level '" + opt.log_level + "' (expected debug|info|warn|error)");
    reject_if(opt.mode == mode::flag && opt.guidance == "estimated",
              "--guidance estimated applies only to the multi-run experiment mode");
    reject_if(opt.mode == mode::flag && !opt.pareto_metric.empty() && opt.chaotic(),
              "--chaos-* does not apply to --pareto (it injects into single-metric runs)");
    reject_if(!opt.checkpoint.empty() && !opt.resume.empty(),
              "--checkpoint and --resume are exclusive (--resume P keeps checkpointing to P)");
    return opt;
}

unsigned long long ull(std::uint64_t v) { return static_cast<unsigned long long>(v); }

// Opens --store (null when unset) and reports its size; throws when the
// directory cannot be opened.
std::shared_ptr<EvalStore> open_store(const CliOptions& opt,
                                      const std::shared_ptr<obs::MetricsRegistry>& metrics)
{
    if (opt.store.empty()) return nullptr;
    EvalStoreConfig sc;
    sc.path = opt.store;
    sc.max_bytes = opt.store_max_bytes;
    auto store = std::make_shared<EvalStore>(sc);
    if (metrics) store->attach_metrics(metrics);
    std::printf("evaluation store: %s (%zu records)\n", opt.store.c_str(), store->records());
    return store;
}

// What --lineage, --metrics, --progress and --store attach to a search
// (job, flag and experiment mode), and the report they print after it.
class SearchObservers {
public:
    // Throws when the store cannot be opened.
    explicit SearchObservers(const CliOptions& opt)
    {
        if (opt.lineage) inst.lineage = std::make_shared<obs::LineageTracker>();
        if (opt.metrics) inst.metrics = std::make_shared<obs::MetricsRegistry>();
        if (opt.progress_interval > 0.0) {
            inst.progress = std::make_shared<obs::ProgressTracker>();
            heartbeat_ = std::make_unique<obs::ProgressHeartbeat>(inst.progress,
                                                                  opt.progress_interval);
        }
        store = open_store(opt, inst.metrics);
    }

    // Stops the heartbeat, then prints the lineage efficacy summary of the
    // last finished run, the store counters and the metrics registry.
    void report()
    {
        heartbeat_.reset();
        if (const obs::LineageCounters c =
                inst.lineage ? inst.lineage->counters() : obs::LineageCounters{};
            c.have_last) {
            const obs::LineageSummary& s = c.last;
            std::printf("lineage (%s, last of %llu runs): %llu births (%llu roots, %llu "
                        "elites, %llu mutation, %llu crossover), %llu survived, %llu "
                        "improved\n",
                        c.engine.c_str(), ull(c.runs), ull(s.births), ull(s.roots),
                        ull(s.elites), ull(s.mutation_births), ull(s.crossover_births),
                        ull(s.survived), ull(s.improved));
            std::printf("  hint efficacy (offspring/survived/improved): bias %llu/%llu/%llu, "
                        "target %llu/%llu/%llu, uniform %llu/%llu/%llu\n",
                        ull(s.offspring_bias), ull(s.survived_bias), ull(s.improved_bias),
                        ull(s.offspring_target), ull(s.survived_target),
                        ull(s.improved_target), ull(s.offspring_uniform),
                        ull(s.survived_uniform), ull(s.improved_uniform));
            if (s.have_winner)
                std::printf("  winner genes: %llu bias, %llu target, %llu uniform, %llu "
                            "fresh, %llu repair (ancestry depth %llu)\n",
                            ull(s.winner_bias), ull(s.winner_target), ull(s.winner_uniform),
                            ull(s.winner_fresh), ull(s.winner_repair), ull(s.winner_depth));
        }
        if (store) {
            store->flush();
            const EvalStoreCounters c = store->counters();
            const std::uint64_t probes = c.hits + c.misses;
            std::printf("store: %zu records; %llu hits / %llu misses (%.1f%% hit rate), "
                        "%llu writes, %llu compactions, %llu evictions\n",
                        store->records(), ull(c.hits), ull(c.misses),
                        probes == 0 ? 0.0 : 100.0 * static_cast<double>(c.hits) / probes,
                        ull(c.writes), ull(c.compactions), ull(c.evictions));
        }
        if (inst.metrics) {
            std::cout << "-- metrics --\n";
            inst.metrics->write_text(std::cout);
        }
    }

    obs::Instrumentation inst;
    std::shared_ptr<EvalStore> store;

private:
    std::unique_ptr<obs::ProgressHeartbeat> heartbeat_;
};

// Runs one spec through serve::run_job -- the entry point the job server
// uses -- and prints its outcome.  --job and flag mode differ only in where
// `spec` comes from and in the checkpoint rule: --job resumes an existing
// --checkpoint file (as the server does), flag mode's --checkpoint starts a
// fresh run and its --resume requires the file.
int run_spec(const CliOptions& opt, const serve::JobSpec& spec)
{
    SearchObservers observers{opt};
    serve::JobRunInputs inputs;
    inputs.store = observers.store;
    inputs.trace_path = opt.trace_path;
    inputs.checkpoint_path = opt.resume.empty() ? opt.checkpoint : opt.resume;
    inputs.checkpoint_every = opt.checkpoint_every;
    inputs.obs = observers.inst;
    inputs.halt_at_generation = opt.die_at_gen;
    inputs.fault.retry.max_attempts = std::max<std::size_t>(opt.retries, 1);
    inputs.fault.retry.backoff_ms = opt.retry_backoff_ms;
    inputs.fault.retry.timeout_seconds = opt.eval_timeout;
    inputs.fault.tolerate_failures = opt.chaotic() || opt.retries > 1;
    inputs.chaos = {.fail_rate = opt.chaos_fail, .hang_rate = opt.chaos_hang,
                    .flaky_value_rate = opt.chaos_flaky, .seed = opt.chaos_seed};
    if (opt.chaotic())
        std::printf("chaos mode: fail %.3f, hang %.3f, flaky %.3f (seed %llu)\n",
                    opt.chaos_fail, opt.chaos_hang, opt.chaos_flaky, ull(opt.chaos_seed));
    if (opt.mode == mode::flag) {
        if (!opt.resume.empty() && !std::ifstream{opt.resume})
            throw std::runtime_error("checkpoint " + opt.resume + ": cannot open");
        std::error_code ignored;
        if (!opt.checkpoint.empty()) std::filesystem::remove(opt.checkpoint, ignored);
    }

    std::printf("job: %s\n", serve::canonical_spec_json(spec).c_str());
    std::fflush(stdout);
    const serve::JobOutcome r = serve::run_job(spec, inputs);
    if (r.halted)
        std::printf("halted at generation %zu (checkpoint written to %s)\n",
                    inputs.halt_at_generation, inputs.checkpoint_path.c_str());
    if (!r.feasible) std::printf("no feasible design found\n");
    else if (spec.engine == "nsga2") {
        std::printf("front: %zu points\n", r.front.size());
        for (const serve::FrontEntry& p : r.front) {
            std::printf("  [");
            for (std::size_t k = 0; k < p.values.size(); ++k)
                std::printf("%s%.17g", k == 0 ? "" : ", ", p.values[k]);
            std::printf("]  %s\n", p.genome.c_str());
        }
    }
    else {
        std::printf("best: %.17g\n", r.best);
        if (!r.best_genome.empty()) std::printf("genome: %s\n", r.best_genome.c_str());
    }
    std::printf("evals: %zu distinct, %zu calls; attempts %llu (retries %llu, failures %llu, "
                "timeouts %llu, quarantined %llu)\n",
                r.distinct_evals, r.total_eval_calls, ull(r.fault.attempts),
                ull(r.fault.retries), ull(r.fault.failures), ull(r.fault.timeouts),
                ull(r.fault.quarantined));
    if (inputs.store)
        std::printf("store served %zu of %zu distinct evaluations\n", r.store_hits,
                    r.distinct_evals);
    observers.report();
    return 0;
}

// `--job SPEC.json`: the spec comes from a file; exits 2 when it cannot be
// read or is not a valid spec.
serve::JobSpec read_spec(const std::string& path)
{
    std::ifstream in{path};
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        std::exit(2);
    }
    try {
        return serve::parse_job_spec(std::string{std::istreambuf_iterator<char>{in},
                                                 std::istreambuf_iterator<char>{}});
    }
    catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "invalid job spec: %s\n", e.what());
        std::exit(2);
    }
}

Direction direction_of(const CliOptions& opt, Metric metric)
{
    if (opt.direction.empty()) return ip::metric_default_direction(metric);
    return opt.direction == "min" ? Direction::minimize : Direction::maximize;
}

Metric metric_of(const CliOptions& opt)
{
    return *ip::metric_from_name(opt.metric.empty() ? serve::default_metric(opt.ip)
                                                    : opt.metric);
}

// Flag mode: the flags become a spec (engine nsga2 with --pareto, else ga).
serve::JobSpec flag_spec(const CliOptions& opt)
{
    const Metric metric = metric_of(opt);
    return {.engine = opt.pareto_metric.empty() ? "ga" : "nsga2", .ip = opt.ip,
            .metric = ip::metric_name(metric), .metric2 = opt.pareto_metric,
            .direction = direction_of(opt, metric) == Direction::minimize ? "min" : "max",
            .guidance = opt.guidance, .generations = opt.generations,
            .population = opt.population, .seed = opt.seed, .workers = opt.workers};
}

// The multi-run experiment: baseline vs guided GA, averaged over --runs.
int run_experiment(const CliOptions& opt, const ip::IpGenerator& generator, Metric metric,
                   Direction direction)
{
    SearchObservers observers{opt};
    obs::Instrumentation& inst = observers.inst;
    if (!opt.trace_path.empty())
        inst.tracer = obs::Tracer{std::make_shared<obs::JsonlFileSink>(opt.trace_path)};
    exp::ExperimentConfig cfg;
    cfg.runs = opt.runs;
    cfg.ga.generations = opt.generations;
    if (opt.population != 0) cfg.ga.population_size = opt.population;
    cfg.ga.seed = opt.seed;
    cfg.ga.eval_workers = opt.workers;
    cfg.ga.obs = inst;
    if (observers.store) {
        cfg.ga.store = observers.store;
        cfg.ga.store_namespace =
            EvalStore::namespace_key(opt.ip + "/" + ip::metric_name(metric));
    }

    const exp::Query query = exp::Query::simple(
        std::string(direction_name(direction)) + " " + ip::metric_name(metric), metric,
        direction);

    exp::Experiment experiment{generator, query, cfg};
    std::optional<ip::Dataset> cached;
    if (!opt.dataset.empty()) {
        std::ifstream in{opt.dataset};
        if (!in) throw std::runtime_error("cannot read " + opt.dataset);
        cached = ip::Dataset::load_csv(in, generator);
        std::printf("serving evaluations from %s (%zu points)\n", opt.dataset.c_str(),
                    cached->size());
        experiment.use_dataset(*cached);
    }
    experiment.add_engine({"baseline", GuidanceLevel::none, std::nullopt, std::nullopt});
    if (opt.guidance == "weak" || opt.guidance == "strong") {
        const GuidanceLevel level =
            opt.guidance == "weak" ? GuidanceLevel::weak : GuidanceLevel::strong;
        experiment.add_engine({"nautilus-" + opt.guidance, level, std::nullopt,
                               std::nullopt});
    }
    else if (opt.guidance == "estimated") {
        HintEstimatorConfig ec;
        ec.samples = opt.samples;
        ec.seed = opt.seed ^ 0xe57;
        ec.tracer = inst.tracer;
        HintSet estimated =
            HintEstimator{ec}.estimate(generator.space(), generator.metric_eval(metric));
        if (direction == Direction::minimize) estimated = estimated.negated_bias();
        experiment.add_engine({"nautilus-estimated", GuidanceLevel::strong,
                               std::move(estimated), std::nullopt});
    }

    experiment.run().print(std::cout);
    observers.report();
    return 0;
}

// Enumerates the whole space: --save-dataset writes it, --sensitivity
// reports each parameter's main effect on the metric.
int run_characterization(const CliOptions& opt, const ip::IpGenerator& generator,
                         Metric metric)
{
    std::printf("characterizing the full design space...\n");
    const ip::Dataset ds = ip::Dataset::enumerate(generator);
    std::printf("%zu points, %zu feasible\n", ds.size(), ds.feasible_count());
    if (!opt.save_dataset.empty()) {
        std::ofstream out{opt.save_dataset};
        if (!out) throw std::runtime_error("cannot write " + opt.save_dataset);
        ds.save_csv(out, generator);
        std::printf("dataset written to %s\n", opt.save_dataset.c_str());
    }
    if (opt.sensitivity)
        ip::print_sensitivity_report(std::cout, generator, metric,
                                     ip::main_effects(ds, generator, metric));
    return 0;
}

// `--serve PORT`: the job server.  One scheduler over a shared worker-slot
// pool and (optionally) one shared evaluation store; every job feeds the
// server's metrics registry and lineage tracker, which /metrics and
// /lineage serve.
int serve_mode(const CliOptions& opt)
{
    const auto metrics = std::make_shared<obs::MetricsRegistry>();

    // The structured log is always live (the in-memory ring backs /logs);
    // --log additionally appends every record to a JSONL file.
    obs::LogConfig lc;
    lc.level = *obs::log_level_from_name(opt.log_level);
    lc.path = opt.log_path;
    const auto logger = std::make_shared<obs::Logger>(lc);
    const std::shared_ptr<EvalStore> store = open_store(opt, metrics);

    serve::SchedulerConfig sc;
    sc.worker_capacity = opt.jobs_capacity;
    sc.jobs_dir = opt.jobs_dir;
    sc.store = store;
    sc.metrics = metrics;
    sc.log = logger;
    auto scheduler = std::make_shared<serve::JobScheduler>(sc);

    obs::HttpServerConfig http;
    http.port = static_cast<std::uint16_t>(opt.serve_port);
    auto server = std::make_unique<obs::ObsHttpServer>(http, metrics, nullptr,
                                                       scheduler->lineage());
    server->attach_logger(logger);
    server->attach_jobs(scheduler);
    server->start();
    std::printf("serving jobs on http://127.0.0.1:%u/jobs (capacity %zu, dir %s)\n",
                static_cast<unsigned>(server->port()), scheduler->capacity(),
                opt.jobs_dir.c_str());
    if (!opt.log_path.empty())
        std::printf("logging to %s (level %s)\n", opt.log_path.c_str(),
                    opt.log_level.c_str());
    std::fflush(stdout);

    if (opt.serve_duration > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(opt.serve_duration));
    else
        while (true) std::this_thread::sleep_for(std::chrono::hours(1));

    server->stop();
    server.reset();     // drops the server's scheduler reference
    scheduler.reset();  // cancels + joins running jobs (checkpoints written)
    if (store) store->flush();
    std::printf("job server stopped\n");
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
    const CliOptions opt = parse(argc, argv);
    try {
        if (opt.mode == mode::serve) return serve_mode(opt);
        if (opt.mode == mode::job) return run_spec(opt, read_spec(opt.job_spec));
        if (opt.mode == mode::flag) return run_spec(opt, flag_spec(opt));

        const std::unique_ptr<ip::IpGenerator> generator = serve::make_generator(opt.ip);
        const Metric metric = metric_of(opt);
        std::printf("IP: %s (%zu parameters, %.0f configurations)\n",
                    generator->name().c_str(), generator->space().size(),
                    generator->space().cardinality());
        if (opt.mode == mode::characterize)
            return run_characterization(opt, *generator, metric);
        if (!opt.trace_path.empty()) std::printf("tracing to %s\n", opt.trace_path.c_str());
        return run_experiment(opt, *generator, metric, direction_of(opt, metric));
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
