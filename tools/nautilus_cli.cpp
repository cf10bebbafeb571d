// nautilus_cli: command-line front end to the search engines.
//
//   nautilus_cli --ip fft --metric area_luts --direction min
//                --guidance strong --runs 20 --generations 80
//
// Modes, first match wins: --job, --serve-jobs, characterization, flag
// mode, else the multi-run experiment.  A flag the chosen mode would
// ignore exits 2 with a diagnostic.
//
// Query options:
//   --ip {router,fft,network}   IP generator to explore (default router)
//   --metric NAME               metric to optimize (default per IP)
//   --direction {min,max}       optimization direction (default per metric)
//   --guidance {none,weak,strong,estimated}
//                               hint provenance: author hints at the given
//                               confidence, or non-expert estimation from
//                               samples, multi-run mode only (default
//                               none = baseline GA)
//   --generations N             GA generations (default 80)
//   --population N              population (default 0 = engine default:
//                               10 for the GA, 24 for --pareto)
//   --seed N                    experiment seed (default 2015)
//   --workers N                 threads for population evaluation (default 1;
//                               results are identical for any worker count)
//   --trace PATH                write a structured JSONL trace of the run
//                               (read with `nautilus_trace inspect`; includes
//                               birth and lineage_summary events, see
//                               `nautilus_trace lineage`)
//   --lineage                   track search lineage live (hint-class
//                               attribution) and print an efficacy summary at
//                               the end; also feeds the /lineage endpoint
//   --metrics                   print the metrics registry dump at the end
//   --serve PORT                serve live observability over HTTP while the
//                               search runs: /metrics (Prometheus text),
//                               /status (JSON progress), /healthz.  PORT 0
//                               picks an ephemeral port (printed at startup)
//   --serve-grace S             keep the HTTP endpoint alive S seconds after
//                               the run finishes (scrape-after-completion)
//   --progress [S]              print a one-line progress heartbeat to
//                               stderr every S seconds (default 5)
//   --store PATH                cross-run persistent evaluation store: serve
//                               repeat evaluations from PATH and record fresh
//                               ones (results are bit-for-bit identical with
//                               or without the store; see DESIGN.md)
//   --store-max-bytes N         evict oldest store records past N bytes
//                               (default 0 = unlimited)
//
// Multi-run experiment mode only (baseline vs guided GA, averaged):
//   --runs N                    runs to average (default 10)
//   --samples N                 estimation samples for --guidance estimated
//   --dataset PATH              serve evaluations from a saved CSV dataset
//
// Characterization (enumerates the space instead of searching):
//   --sensitivity               print the dataset sensitivity report
//   --save-dataset PATH         characterize the space and write CSV
//
// Flag mode (--pareto, or any flag below): the flags become a JobSpec run
// by serve::run_job as --job does; engine nsga2 with --pareto, else ga.
//   --pareto METRIC2            map the METRIC x METRIC2 Pareto front
//   --checkpoint PATH           start fresh, writing run state to PATH every
//                               --checkpoint-every generations (default 1)
//   --resume PATH               resume a checkpointed run bit-for-bit, at
//                               any --workers count
//   --die-at-gen N              write a checkpoint at generation N and stop
//                               (deterministic stand-in for a killed run)
//   --retries N                 evaluation attempts per design point
//   --retry-backoff MS          base backoff before retry 2 (exponential)
//   --eval-timeout S            per-attempt watchdog timeout in seconds
//   --chaos-fail R              inject failures with probability R (implies
//                               quarantine-on-exhaustion; not with --pareto)
//   --chaos-hang R              inject hangs (sleep) with probability R
//   --chaos-flaky R             perturb values with probability R
//   --chaos-seed N              fault-injection seed (default 0xc4a05)
//
// Job plane (search-as-a-service; see DESIGN.md §12):
//   --job SPEC.json             run one job spec standalone (the reference
//                               side of the server determinism gate); honors
//                               --trace, --store, --checkpoint (resumed when
//                               present), --die-at-gen
//   --serve-jobs PORT           run the multi-tenant job server: POST /jobs
//                               submits specs, GET /jobs/<id> streams
//                               progress, DELETE /jobs/<id> cancels with a
//                               resumable checkpoint.  PORT 0 = ephemeral
//   --jobs-capacity N           total evaluation-worker slots shared by all
//                               jobs (default 4)
//   --jobs-dir PATH             directory for per-job traces and checkpoints
//                               (default .)
//   --serve-duration S          serve for S seconds then exit (default 0 =
//                               serve until killed)
//   --log PATH                  append the structured server log (JSONL) to
//                               PATH: per-request access records plus job
//                               lifecycle records, all carrying the request
//                               id echoed in X-Nautilus-Request-Id.  The
//                               in-memory tail is always served at /logs?n=K
//   --log-level L               minimum level kept: debug|info|warn|error
//                               (default info)

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>

#include "core/eval_store.hpp"
#include "core/hint_estimator.hpp"
#include "core/nautilus.hpp"
#include "exp/experiment.hpp"
#include "obs/http_server.hpp"
#include "obs/obs.hpp"
#include "ip/analysis.hpp"
#include "serve/engine_factory.hpp"
#include "serve/scheduler.hpp"

using namespace nautilus;
using ip::Metric;

namespace {

struct CliOptions {
    std::string ip = "router";
    std::string metric;
    std::string direction;
    std::string guidance = "none";
    std::size_t runs = 10;
    std::size_t generations = 80;
    std::size_t population = 0;  // 0 = engine default
    std::uint64_t seed = 2015;
    std::size_t workers = 1;
    std::size_t samples = 80;
    bool sensitivity = false;
    std::string save_dataset;
    std::string dataset;
    std::string pareto_metric;
    std::string trace_path;
    bool lineage = false;
    bool metrics = false;
    int serve_port = -1;            // >= 0 enables the HTTP endpoint
    double serve_grace = 0.0;       // seconds to keep serving after the run
    double progress_interval = 0.0; // > 0 enables the stderr heartbeat
    std::string store;              // persistent evaluation store directory
    std::uint64_t store_max_bytes = 0;  // 0 = unlimited

    // Job plane: one standalone spec run, or the multi-tenant server.
    std::string job_spec;            // --job SPEC.json
    int serve_jobs_port = -1;        // >= 0 enables the job server
    std::size_t jobs_capacity = 4;   // shared eval-worker slots
    std::string jobs_dir = ".";      // per-job traces + checkpoints
    double serve_duration = 0.0;     // 0 = serve until killed
    std::string log_path;            // structured server log file (JSONL)
    std::string log_level = "info";  // debug|info|warn|error

    // Flag mode: checkpoint and fault-tolerance settings.
    std::string checkpoint;
    std::size_t checkpoint_every = 1;
    std::string resume;
    std::size_t die_at_gen = 0;
    std::size_t retries = 1;
    double retry_backoff_ms = 0.0;
    double eval_timeout = 0.0;
    double chaos_fail = 0.0;
    double chaos_hang = 0.0;
    double chaos_flaky = 0.0;
    std::uint64_t chaos_seed = 0xc4a05;

    bool chaotic() const { return chaos_fail > 0.0 || chaos_hang > 0.0 || chaos_flaky > 0.0; }
};

// What one invocation does; the first that applies wins.
enum class Mode { job, serve_jobs, characterize, flag_job, experiment };

Mode mode_of(const CliOptions& opt)
{
    if (!opt.job_spec.empty()) return Mode::job;
    if (opt.serve_jobs_port >= 0) return Mode::serve_jobs;
    if (!opt.save_dataset.empty() || opt.sensitivity) return Mode::characterize;
    if (!opt.pareto_metric.empty() || !opt.checkpoint.empty() || !opt.resume.empty() ||
        opt.die_at_gen != 0 || opt.chaotic() || opt.retries > 1 || opt.eval_timeout > 0.0)
        return Mode::flag_job;
    return Mode::experiment;
}

unsigned long long ull(std::uint64_t v) { return static_cast<unsigned long long>(v); }

[[noreturn]] void usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [query] [experiment | characterize | flag mode | job plane]\n"
                 "  query:        [--ip router|fft|network] [--metric NAME] [--direction min|max]\n"
                 "                [--guidance none|weak|strong|estimated] [--generations N]\n"
                 "                [--population N] [--seed N] [--workers N] [--trace PATH]\n"
                 "                [--lineage] [--metrics] [--serve PORT] [--serve-grace S]\n"
                 "                [--progress [S]] [--store PATH] [--store-max-bytes N]\n"
                 "  experiment:   [--runs N] [--samples N] [--dataset PATH]\n"
                 "  characterize: [--sensitivity] [--save-dataset PATH]\n"
                 "  flag mode:    [--pareto METRIC2] [--checkpoint PATH] [--checkpoint-every N]\n"
                 "                [--resume PATH] [--die-at-gen N] [--retries N]\n"
                 "                [--retry-backoff MS] [--eval-timeout S] [--chaos-fail R]\n"
                 "                [--chaos-hang R] [--chaos-flaky R] [--chaos-seed N]\n"
                 "  job plane:    [--job SPEC.json] [--serve-jobs PORT] [--jobs-capacity N]\n"
                 "                [--jobs-dir PATH] [--serve-duration S] [--log PATH]\n"
                 "                [--log-level debug|info|warn|error]\n",
                 argv0);
    std::exit(2);
}

// Numeric flag parsing.  std::stoul/std::stod throw on garbage and silently
// accept partial matches ("--seed 1e99" parses as 1); either way the user
// typed something that is not the number they meant.  These helpers demand
// that the whole token parse, and on failure print the offending flag plus
// the usage text and exit 2 instead of letting the exception escape to
// std::terminate.
std::uint64_t parse_u64(const char* argv0, const std::string& flag, const char* text)
{
    try {
        const std::string s{text};
        if (!s.empty() && s[0] != '-' && s[0] != '+') {
            std::size_t pos = 0;
            const unsigned long long v = std::stoull(s, &pos);
            if (pos == s.size()) return static_cast<std::uint64_t>(v);
        }
    }
    catch (const std::exception&) {
    }
    std::fprintf(stderr, "invalid value '%s' for %s (expected a non-negative integer)\n",
                 text, flag.c_str());
    usage(argv0);
}

std::size_t parse_count(const char* argv0, const std::string& flag, const char* text)
{
    return static_cast<std::size_t>(parse_u64(argv0, flag, text));
}

double parse_number(const char* argv0, const std::string& flag, const char* text)
{
    try {
        const std::string s{text};
        std::size_t pos = 0;
        const double v = std::stod(s, &pos);
        if (pos == s.size() && std::isfinite(v)) return v;
    }
    catch (const std::exception&) {
    }
    std::fprintf(stderr, "invalid value '%s' for %s (expected a finite number)\n", text,
                 flag.c_str());
    usage(argv0);
}

CliOptions parse(int argc, char** argv)
{
    CliOptions opt;
    auto need_value = [&](int& i) -> const char* {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
    };
    const auto reject_if = [&](bool bad, const std::string& why) {
        if (!bad) return;
        std::fprintf(stderr, "%s\n", why.c_str());
        usage(argv[0]);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto count = [&](int& j) { return parse_count(argv[0], arg, need_value(j)); };
        const auto u64 = [&](int& j) { return parse_u64(argv[0], arg, need_value(j)); };
        const auto number = [&](int& j) { return parse_number(argv[0], arg, need_value(j)); };
        const auto port = [&](int& j) {
            const std::uint64_t p = u64(j);
            reject_if(p > 65535, arg + " port out of range (0..65535)");
            return static_cast<int>(p);
        };
        if (arg == "--ip") opt.ip = need_value(i);
        else if (arg == "--metric") opt.metric = need_value(i);
        else if (arg == "--direction") opt.direction = need_value(i);
        else if (arg == "--guidance") opt.guidance = need_value(i);
        else if (arg == "--runs") opt.runs = count(i);
        else if (arg == "--generations") opt.generations = count(i);
        else if (arg == "--population") opt.population = count(i);
        else if (arg == "--seed") opt.seed = u64(i);
        else if (arg == "--workers") opt.workers = count(i);
        else if (arg == "--samples") opt.samples = count(i);
        else if (arg == "--sensitivity") opt.sensitivity = true;
        else if (arg == "--save-dataset") opt.save_dataset = need_value(i);
        else if (arg == "--dataset") opt.dataset = need_value(i);
        else if (arg == "--pareto") opt.pareto_metric = need_value(i);
        else if (arg == "--trace") opt.trace_path = need_value(i);
        else if (arg == "--lineage") opt.lineage = true;
        else if (arg == "--metrics") opt.metrics = true;
        else if (arg == "--serve") opt.serve_port = port(i);
        else if (arg == "--serve-grace") opt.serve_grace = number(i);
        else if (arg == "--progress") {
            // Optional numeric value: `--progress 2` or bare `--progress`.
            opt.progress_interval = 5.0;
            if (i + 1 < argc && std::isdigit(static_cast<unsigned char>(argv[i + 1][0])))
                opt.progress_interval = parse_number(argv[0], arg, argv[++i]);
        }
        else if (arg == "--store") opt.store = need_value(i);
        else if (arg == "--store-max-bytes") opt.store_max_bytes = u64(i);
        else if (arg == "--job") opt.job_spec = need_value(i);
        else if (arg == "--serve-jobs") opt.serve_jobs_port = port(i);
        else if (arg == "--jobs-capacity") opt.jobs_capacity = count(i);
        else if (arg == "--jobs-dir") opt.jobs_dir = need_value(i);
        else if (arg == "--serve-duration") opt.serve_duration = number(i);
        else if (arg == "--log") opt.log_path = need_value(i);
        else if (arg == "--log-level") opt.log_level = need_value(i);
        else if (arg == "--checkpoint") opt.checkpoint = need_value(i);
        else if (arg == "--checkpoint-every") opt.checkpoint_every = count(i);
        else if (arg == "--resume") opt.resume = need_value(i);
        else if (arg == "--die-at-gen") opt.die_at_gen = count(i);
        else if (arg == "--retries") opt.retries = count(i);
        else if (arg == "--retry-backoff") opt.retry_backoff_ms = number(i);
        else if (arg == "--eval-timeout") opt.eval_timeout = number(i);
        else if (arg == "--chaos-fail") opt.chaos_fail = number(i);
        else if (arg == "--chaos-hang") opt.chaos_hang = number(i);
        else if (arg == "--chaos-flaky") opt.chaos_flaky = number(i);
        else if (arg == "--chaos-seed") opt.chaos_seed = u64(i);
        else if (arg == "--help" || arg == "-h") usage(argv[0]);
        else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
        }
    }
    // A flag the chosen mode would drop is an error, not a silent no-op.
    const Mode mode = mode_of(opt);
    const std::string experiment_only = " applies only to the multi-run experiment mode";
    reject_if(opt.workers == 0, "--workers must be at least 1");
    reject_if(mode != Mode::experiment && !opt.dataset.empty(), "--dataset" + experiment_only);
    reject_if(mode == Mode::flag_job && opt.guidance == "estimated",
              "--guidance estimated" + experiment_only);
    reject_if(mode == Mode::flag_job && !opt.pareto_metric.empty() && opt.chaotic(),
              "--chaos-* does not apply to --pareto (it injects into single-metric runs)");
    reject_if(!opt.checkpoint.empty() && !opt.resume.empty(),
              "--checkpoint and --resume are exclusive (--resume P keeps checkpointing to P)");
    return opt;
}

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

// Runs one spec through serve::run_job -- the entry point the job server
// uses -- and prints its outcome.  Shared by --job and flag mode.
int run_spec(const serve::JobSpec& spec, const serve::JobRunInputs& inputs)
{
    std::printf("job: %s\n", serve::canonical_spec_json(spec).c_str());
    std::fflush(stdout);
    serve::JobOutcome r;
    try {
        r = serve::run_job(spec, inputs);
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
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
    return 0;
}

// `--job SPEC.json`: run one job spec standalone.  This is the reference
// side of the server determinism gate -- its trace must be byte-identical
// to the server-side trace of the same spec.
int run_job_mode(const CliOptions& opt)
{
    std::ifstream in{opt.job_spec};
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", opt.job_spec.c_str());
        return 2;
    }
    const std::string json{std::istreambuf_iterator<char>{in},
                           std::istreambuf_iterator<char>{}};
    serve::JobSpec spec;
    try {
        spec = serve::parse_job_spec(json);
    }
    catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "invalid job spec: %s\n", e.what());
        return 2;
    }

    serve::JobRunInputs inputs;
    inputs.trace_path = opt.trace_path;
    inputs.checkpoint_path = opt.checkpoint;
    inputs.halt_at_generation = opt.die_at_gen;
    try {
        inputs.store = open_store(opt, nullptr);
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    const int code = run_spec(spec, inputs);
    if (inputs.store) inputs.store->flush();
    return code;
}

// Flag mode: the flags become a JobSpec (engine nsga2 with --pareto, else
// ga) plus the run inputs the CLI adds, run like a --job spec.
int run_flag_job(const CliOptions& opt, Metric metric, Direction direction,
                 const std::shared_ptr<EvalStore>& store, const obs::Instrumentation& inst)
{
    const serve::JobSpec spec{
        .engine = opt.pareto_metric.empty() ? "ga" : "nsga2", .ip = opt.ip,
        .metric = ip::metric_name(metric), .metric2 = opt.pareto_metric,
        .direction = direction == Direction::minimize ? "min" : "max",
        .guidance = opt.guidance, .generations = opt.generations,
        .population = opt.population, .seed = opt.seed, .workers = opt.workers};

    serve::JobRunInputs inputs;
    inputs.store = store;
    inputs.trace_path = opt.trace_path;
    inputs.checkpoint_path = opt.resume.empty() ? opt.checkpoint : opt.resume;
    inputs.checkpoint_every = opt.checkpoint_every;
    inputs.obs = inst;
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

    // Not run_job's resume-if-exists rule: --resume demands the file and
    // --checkpoint always starts a fresh run.
    if (!opt.resume.empty() && !std::ifstream{opt.resume}) {
        std::fprintf(stderr, "checkpoint %s: cannot open\n", opt.resume.c_str());
        return 1;
    }
    std::error_code ignored;
    if (!opt.checkpoint.empty()) std::filesystem::remove(opt.checkpoint, ignored);
    return run_spec(spec, inputs);
}

// The multi-run experiment: baseline vs guided GA, averaged over --runs.
int run_experiment(const CliOptions& opt, const ip::IpGenerator& generator, Metric metric,
                   Direction direction, const std::shared_ptr<EvalStore>& store,
                   obs::Instrumentation inst)
{
    if (!opt.trace_path.empty()) {
        try {
            inst.tracer = obs::Tracer{std::make_shared<obs::JsonlFileSink>(opt.trace_path)};
        }
        catch (const std::exception& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    }
    exp::ExperimentConfig cfg;
    cfg.runs = opt.runs;
    cfg.ga.generations = opt.generations;
    if (opt.population != 0) cfg.ga.population_size = opt.population;
    cfg.ga.seed = opt.seed;
    cfg.ga.eval_workers = opt.workers;
    cfg.ga.obs = inst;
    if (store) {
        cfg.ga.store = store;
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
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n", opt.dataset.c_str());
            return 1;
        }
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
    return 0;
}

// `--serve-jobs PORT`: the multi-tenant job server.  One scheduler over a
// shared worker-slot pool and (optionally) one shared evaluation store;
// the observability HTTP server is the submission plane.
int serve_jobs_mode(const CliOptions& opt)
{
    const auto metrics = std::make_shared<obs::MetricsRegistry>();
    const auto progress = std::make_shared<obs::ProgressTracker>();

    // The structured log is always live (the in-memory ring backs /logs);
    // --log additionally appends every record to a JSONL file.
    const auto level = obs::log_level_from_name(opt.log_level);
    if (!level) {
        std::fprintf(stderr, "unknown log level '%s' (expected debug|info|warn|error)\n",
                     opt.log_level.c_str());
        return 2;
    }
    std::shared_ptr<obs::Logger> logger;
    try {
        obs::LogConfig lc;
        lc.level = *level;
        lc.path = opt.log_path;
        logger = std::make_shared<obs::Logger>(lc);
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    std::shared_ptr<EvalStore> store;
    try {
        store = open_store(opt, metrics);
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    serve::SchedulerConfig sc;
    sc.worker_capacity = opt.jobs_capacity;
    sc.jobs_dir = opt.jobs_dir;
    sc.store = store;
    sc.metrics = metrics;
    sc.log = logger;
    auto scheduler = std::make_shared<serve::JobScheduler>(sc);

    obs::HttpServerConfig http;
    http.port = static_cast<std::uint16_t>(opt.serve_jobs_port);
    auto server = std::make_unique<obs::ObsHttpServer>(http, metrics, progress);
    server->attach_logger(logger);
    server->attach_jobs(scheduler);
    try {
        server->start();
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
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
    const Mode mode = mode_of(opt);

    // Job-plane modes are self-contained (specs name their own IP and the
    // server multiplexes many searches).
    if (mode == Mode::job) return run_job_mode(opt);
    if (mode == Mode::serve_jobs) return serve_jobs_mode(opt);

    std::unique_ptr<ip::IpGenerator> generator;
    try {
        generator = serve::make_generator(opt.ip);
    }
    catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    const std::string metric_name = opt.metric.empty() ? serve::default_metric(opt.ip)
                                                       : opt.metric;
    for (const std::string& name : {metric_name, opt.pareto_metric})
        if (!name.empty() && !ip::metric_from_name(name)) {
            std::fprintf(stderr, "unknown metric '%s'\n", name.c_str());
            return 2;
        }
    const Metric metric = *ip::metric_from_name(metric_name);
    Direction direction = ip::metric_default_direction(metric);
    if (opt.direction == "min") direction = Direction::minimize;
    else if (opt.direction == "max") direction = Direction::maximize;
    else if (!opt.direction.empty()) usage(argv[0]);
    if (opt.guidance != "none" && opt.guidance != "weak" && opt.guidance != "strong" &&
        opt.guidance != "estimated")
        usage(argv[0]);

    std::printf("IP: %s (%zu parameters, %.0f configurations)\n",
                generator->name().c_str(), generator->space().size(),
                generator->space().cardinality());
    if (!opt.trace_path.empty()) std::printf("tracing to %s\n", opt.trace_path.c_str());

    // Observability: lineage, an end-of-run metrics dump and (experiment
    // mode; run_job opens its own) the JSONL tracer.  All default off; a
    // default-constructed Instrumentation costs a predicted branch per site.
    obs::Instrumentation inst;
    if (opt.lineage) inst.lineage = std::make_shared<obs::LineageTracker>();
    if (opt.metrics) inst.metrics = std::make_shared<obs::MetricsRegistry>();

    // Live observability: the progress tracker feeds both the HTTP /status
    // endpoint and the stderr heartbeat; --serve additionally exposes the
    // metrics registry (created on demand so /metrics is never empty-handed).
    std::shared_ptr<obs::ProgressTracker> progress;
    std::unique_ptr<obs::ObsHttpServer> server;
    std::unique_ptr<obs::ProgressHeartbeat> heartbeat;
    if (opt.serve_port >= 0 || opt.progress_interval > 0.0) {
        progress = std::make_shared<obs::ProgressTracker>();
        inst.progress = progress;
    }
    if (opt.serve_port >= 0) {
        if (!inst.metrics) inst.metrics = std::make_shared<obs::MetricsRegistry>();
        obs::HttpServerConfig http;
        http.port = static_cast<std::uint16_t>(opt.serve_port);
        server = std::make_unique<obs::ObsHttpServer>(http, inst.metrics, progress,
                                                      inst.lineage);
        try {
            server->start();
        }
        catch (const std::exception& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        std::printf("serving http://127.0.0.1:%u/  (/metrics /status /healthz)\n",
                    static_cast<unsigned>(server->port()));
        std::fflush(stdout);
    }
    if (opt.progress_interval > 0.0)
        heartbeat = std::make_unique<obs::ProgressHeartbeat>(progress, opt.progress_interval);

    // Cross-run persistent evaluation store: repeat evaluations are served
    // from disk, fresh ones recorded for the next invocation.  Namespaced by
    // IP + metric so different queries never collide in one store directory.
    std::shared_ptr<EvalStore> store;
    try {
        store = open_store(opt, inst.metrics);
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    // Wind down the live plane: stop the heartbeat, honor --serve-grace so a
    // scraper can still read the final /metrics + /status, then stop serving.
    const auto finish = [&](int code) {
        heartbeat.reset();
        if (server != nullptr) {
            if (opt.serve_grace > 0.0) {
                std::printf("serving for %.1f more seconds (--serve-grace)\n",
                            opt.serve_grace);
                std::fflush(stdout);
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(opt.serve_grace));
            }
            server->stop();
        }
        return code;
    };

    if (!opt.save_dataset.empty() || opt.sensitivity) {
        std::printf("characterizing the full design space...\n");
        const ip::Dataset ds = ip::Dataset::enumerate(*generator);
        std::printf("%zu points, %zu feasible\n", ds.size(), ds.feasible_count());
        if (!opt.save_dataset.empty()) {
            std::ofstream out{opt.save_dataset};
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n", opt.save_dataset.c_str());
                return finish(1);
            }
            ds.save_csv(out, *generator);
            std::printf("dataset written to %s\n", opt.save_dataset.c_str());
        }
        if (opt.sensitivity) {
            const auto effects = ip::main_effects(ds, *generator, metric);
            ip::print_sensitivity_report(std::cout, *generator, metric, effects);
        }
        return finish(0);
    }

    const int code = mode == Mode::flag_job
                         ? run_flag_job(opt, metric, direction, store, inst)
                         : run_experiment(opt, *generator, metric, direction, store, inst);
    if (code != 0) return finish(code);

    // End-of-run lineage efficacy line: the last finished run's per-hint-class
    // offspring -> survived -> improved funnel plus winner attribution.
    if (const obs::LineageCounters c = inst.lineage ? inst.lineage->counters()
                                                    : obs::LineageCounters{};
        c.have_last) {
        const obs::LineageSummary& s = c.last;
        std::printf("lineage (%s, last of %llu runs): %llu births (%llu roots, %llu elites, "
                    "%llu mutation, %llu crossover), %llu survived, %llu improved\n",
                    c.engine.c_str(), ull(c.runs), ull(s.births), ull(s.roots),
                    ull(s.elites), ull(s.mutation_births), ull(s.crossover_births),
                    ull(s.survived), ull(s.improved));
        std::printf("  hint efficacy (offspring/survived/improved): bias %llu/%llu/%llu, "
                    "target %llu/%llu/%llu, uniform %llu/%llu/%llu\n",
                    ull(s.offspring_bias), ull(s.survived_bias), ull(s.improved_bias),
                    ull(s.offspring_target), ull(s.survived_target), ull(s.improved_target),
                    ull(s.offspring_uniform), ull(s.survived_uniform),
                    ull(s.improved_uniform));
        if (s.have_winner)
            std::printf("  winner genes: %llu bias, %llu target, %llu uniform, %llu fresh, "
                        "%llu repair (ancestry depth %llu)\n",
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
    if (opt.metrics) {
        std::cout << "-- metrics --\n";
        inst.metrics->write_text(std::cout);
    }
    return finish(0);
}
