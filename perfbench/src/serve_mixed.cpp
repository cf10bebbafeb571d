// serve_mixed: an in-process JobScheduler (capacity 2, one shared EvalStore
// with the CLI's default durable settings, a scratch jobs_dir) behind
// ObsHttpServer on a loopback ephemeral port, driven by a closed loop of two
// clients.  Each client POSTs /jobs, waits for a terminal state, then GETs
// /jobs/<id>.  Specs mix GA and NSGA-II (checkpointed every generation)
// with random and SA (not checkpointed) over the router and FFT IPs; about
// half of each client's specs repeat one of its own earlier specs and read
// from the store, the rest use fresh seeds and write to it.
//
// Every round starts a fresh server over an empty store and jobs_dir and
// removes them afterwards, so leftover checkpoints cannot make jobs resume
// and a leftover store cannot turn writes into reads.

#include <array>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common.hpp"
#include "core/eval_store.hpp"
#include "http_client.hpp"
#include "obs/format.hpp"
#include "obs/http_server.hpp"
#include "obs/log.hpp"
#include "serve/engine_factory.hpp"
#include "serve/job_spec.hpp"
#include "serve/scheduler.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using nautilus::serve::JobOutcome;
using nautilus::serve::JobScheduler;
using nautilus::serve::JobSpec;

struct Template {
    const char* engine;
    const char* ip;
    const char* metric;
    const char* metric2;
};

// Each client owns its store namespaces (ip/metric[+metric2]), so which
// lookups hit the shared store never depends on how the clients interleave.
constexpr std::size_t kClients = 2;
constexpr std::array<std::array<Template, 4>, kClients> kTemplates{{
    {{{"ga", "router", "freq_mhz", ""},
      {"nsga2", "router", "freq_mhz", "area_luts"},
      {"random", "fft", "area_luts", ""},
      {"sa", "fft", "area_luts", ""}}},
    {{{"ga", "fft", "throughput_per_lut", ""},
      {"nsga2", "fft", "throughput_msps", "area_luts"},
      {"random", "router", "area_delay_product", ""},
      {"sa", "router", "area_delay_product", ""}}},
}};
constexpr std::array<const char*, 3> kGuidance{"none", "weak", "strong"};
constexpr std::size_t kGenerations = 16;
constexpr std::size_t kPopulation = 16;  // nsga2 only; ga keeps its default of 10
constexpr std::size_t kEvals = 320;
constexpr std::size_t kSeedsPerCombo = 2;
// Every spec asks for 1 worker, so with 2 clients a job never waits for
// slots and queue_wait is the admission hand-off.  Specs asking for 2
// workers made round throughput bimodal, depending on how the clients'
// 2-worker jobs happened to collide.
constexpr std::size_t kCapacity = 2;
constexpr std::size_t kLayerReps = 3;  // runs per variant when pricing checkpoint/trace
constexpr double kJobTimeoutSeconds = 120.0;

std::string make_spec(const Template& t, const char* guidance, std::uint64_t seed)
{
    std::string s = std::string{"{\"engine\":\""} + t.engine + "\",\"ip\":\"" + t.ip +
                    "\",\"metric\":\"" + t.metric + "\"";
    if (*t.metric2 != '\0') s += std::string{",\"metric2\":\""} + t.metric2 + "\"";
    s += std::string{",\"guidance\":\""} + guidance + "\"";
    const std::string engine = t.engine;
    if (engine == "ga" || engine == "nsga2") {
        s += ",\"generations\":" + std::to_string(kGenerations);
        if (engine == "nsga2") s += ",\"population\":" + std::to_string(kPopulation);
    }
    else {
        s += ",\"evals\":" + std::to_string(kEvals);
    }
    s += ",\"seed\":" + std::to_string(seed) + ",\"workers\":1}";
    return s;
}

// One client's closed-loop job list, the same every round.  Every
// (template, guidance) combination gets kSeedsPerCombo fresh specs with
// seeded search seeds, so the workload seed changes seeds and order but not
// the mix.  Each fresh spec is repeated once, at a random later point: half
// the jobs are repeats, which read from the store.
std::vector<std::string> plan_client(std::size_t client, SeedRng& rng)
{
    std::vector<std::string> fresh;
    for (const Template& t : kTemplates[client])
        for (const char* guidance : kGuidance)
            for (std::size_t k = 0; k < kSeedsPerCombo; ++k)
                fresh.push_back(make_spec(t, guidance, rng.next() % 1000000007ull));
    rng.shuffle(fresh);

    std::vector<std::string> specs;
    std::vector<std::string> pending;  // submitted once, repeat not yet planned
    std::size_t next = 0;
    while (next < fresh.size() || !pending.empty()) {
        if (next < fresh.size() && (pending.empty() || rng.below(2) == 0)) {
            specs.push_back(fresh[next]);
            pending.push_back(fresh[next++]);
        }
        else {
            const std::size_t i = rng.below(pending.size());
            specs.push_back(pending[i]);
            pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        }
    }
    return specs;
}

// --- reading the server's JSON ---------------------------------------------

// The value text after the first `"key":` in `json`, or npos.
std::size_t value_pos(const std::string& json, std::string_view key)
{
    const std::string needle = "\"" + std::string{key} + "\":";
    const std::size_t at = json.find(needle);
    return at == std::string::npos ? at : at + needle.size();
}

double json_number(const std::string& json, std::string_view key)
{
    const std::size_t at = value_pos(json, key);
    if (at == std::string::npos) throw std::runtime_error("missing \"" + std::string{key} + "\"");
    return std::strtod(json.c_str() + at, nullptr);
}

std::string json_string(const std::string& json, std::string_view key)
{
    const std::size_t at = value_pos(json, key);
    if (at == std::string::npos || json[at] != '"') return {};
    const std::size_t end = json.find('"', at + 1);
    return end == std::string::npos ? std::string{} : json.substr(at + 1, end - at - 1);
}

// The balanced {...} object after `"key":`, strings skipped.
std::string json_object(const std::string& json, std::string_view key)
{
    const std::size_t at = value_pos(json, key);
    if (at == std::string::npos || json[at] != '{')
        throw std::runtime_error("missing object \"" + std::string{key} + "\"");
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = at; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            if (c == '\\') ++i;
            else if (c == '"') in_string = false;
        }
        else if (c == '"') in_string = true;
        else if (c == '{') ++depth;
        else if (c == '}' && --depth == 0) return json.substr(at, i - at + 1);
    }
    throw std::runtime_error("unterminated object \"" + std::string{key} + "\"");
}

// The server's result object without "store_hits", which is the only field
// a shared store may change.
std::string without_store_hits(const std::string& result)
{
    const std::size_t at = result.rfind(",\"store_hits\":");
    return at == std::string::npos ? result : result.substr(0, at) + "}";
}

// The same rendering the scheduler gives a finished job's "result", minus
// "store_hits", for a standalone outcome.
std::string render_result(const JobSpec& spec, const JobOutcome& r)
{
    std::string out = "{\"feasible\":";
    out += r.feasible ? "true" : "false";
    if (r.feasible && spec.engine != "nsga2") {
        out += ",\"best\":";
        nautilus::obs::append_json_double(out, r.best);
    }
    if (!r.best_genome.empty())
        out += ",\"genome\":\"" + nautilus::serve::json_escape(r.best_genome) + "\"";
    if (spec.engine == "nsga2") {
        out += ",\"front\":[";
        for (std::size_t i = 0; i < r.front.size(); ++i) {
            if (i != 0) out += ",";
            out += "{\"genome\":\"" + nautilus::serve::json_escape(r.front[i].genome) +
                   "\",\"values\":[";
            for (std::size_t k = 0; k < r.front[i].values.size(); ++k) {
                if (k != 0) out += ",";
                nautilus::obs::append_json_double(out, r.front[i].values[k]);
            }
            out += "]}";
        }
        out += "]";
    }
    out += ",\"distinct_evals\":" + std::to_string(r.distinct_evals);
    out += ",\"total_calls\":" + std::to_string(r.total_eval_calls);
    return out + "}";
}

// --- one job, one round -----------------------------------------------------

// One job as its client saw it.
struct JobRecord {
    std::size_t spec = 0;  // index into the client's spec list
    std::uint64_t id = 0;
    double latency_s = 0.0;  // POST sent to GET reply read
    double post_s = 0.0;
    double get_s = 0.0;
    double queue_wait_s = 0.0;  // from GET accounting
    double run_s = 0.0;
    std::string result;  // GET "result" minus store_hits
    std::size_t non2xx = 0;
    std::string error;  // non-empty: the job failed
};

JobRecord submit_and_wait(std::uint16_t port, const JobScheduler& scheduler,
                          const std::string& spec)
{
    JobRecord rec;
    const auto start = Clock::now();
    const HttpReply post = http_request(port, "POST", "/jobs", spec);
    rec.post_s = seconds_between(start, Clock::now());
    if (post.status != 201) {
        rec.non2xx += post.status != 0 ? 1 : 0;
        rec.error = "POST /jobs -> " + std::to_string(post.status) + " " + post.error + post.body;
        return rec;
    }
    rec.id = static_cast<std::uint64_t>(json_number(post.body, "id"));
    if (!scheduler.wait(rec.id, kJobTimeoutSeconds)) {
        rec.error = "job " + std::to_string(rec.id) + " did not finish";
        return rec;
    }
    const std::string target = "/jobs/" + std::to_string(rec.id);
    const auto get_start = Clock::now();
    const HttpReply get = http_request(port, "GET", target);
    const auto end = Clock::now();
    rec.get_s = seconds_between(get_start, end);
    rec.latency_s = seconds_between(start, end);
    if (get.status != 200) {
        rec.non2xx += get.status != 0 ? 1 : 0;
        rec.error = "GET " + target + " -> " + std::to_string(get.status) + " " + get.error;
        return rec;
    }
    const std::string state = json_string(get.body, "state");
    if (state != "done") {
        rec.error = "job " + std::to_string(rec.id) + " ended " + state + ": " + get.body;
        return rec;
    }
    const std::string accounting = json_object(get.body, "accounting");
    rec.queue_wait_s = json_number(accounting, "queue_wait_seconds");
    rec.run_s = json_number(accounting, "run_seconds");
    rec.result = without_store_hits(json_object(get.body, "result"));
    return rec;
}

struct Round {
    double setup_s = 0.0;
    double busy_s = 0.0;  // first POST to last GET
    std::array<std::vector<JobRecord>, kClients> jobs;
    nautilus::EvalStoreCounters store;
    std::vector<RunTrace> traces;  // per job, client 0's first
};

Round serve_round(const std::array<std::vector<std::string>, kClients>& plan,
                  const std::string& dir)
{
    Round out;
    const auto start = Clock::now();
    const std::string jobs_dir = dir + "/jobs";
    fs::create_directories(jobs_dir);
    nautilus::EvalStoreConfig store_config;  // the CLI's defaults: fsync'd, flush every 64
    store_config.path = dir + "/store";
    auto store = std::make_shared<nautilus::EvalStore>(store_config);
    auto metrics = std::make_shared<nautilus::obs::MetricsRegistry>();
    store->attach_metrics(metrics);
    auto logger = std::make_shared<nautilus::obs::Logger>(nautilus::obs::LogConfig{});
    nautilus::serve::SchedulerConfig config;
    config.worker_capacity = kCapacity;
    config.jobs_dir = jobs_dir;
    config.store = store;
    config.metrics = metrics;
    config.log = logger;
    auto scheduler = std::make_shared<JobScheduler>(config);
    auto server = std::make_unique<nautilus::obs::ObsHttpServer>(
        nautilus::obs::HttpServerConfig{}, metrics,
        std::make_shared<nautilus::obs::ProgressTracker>());
    server->attach_logger(logger);
    server->attach_jobs(scheduler);
    server->start();
    out.setup_s = seconds_between(start, Clock::now());

    const std::uint16_t port = server->port();
    const auto busy_start = Clock::now();
    {
        std::vector<std::jthread> clients;
        for (std::size_t c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                for (std::size_t j = 0; j < plan[c].size(); ++j) {
                    JobRecord rec;
                    try {
                        rec = submit_and_wait(port, *scheduler, plan[c][j]);
                    }
                    catch (const std::exception& e) {
                        rec.error = e.what();
                    }
                    rec.spec = j;
                    out.jobs[c].push_back(std::move(rec));
                }
            });
    }
    out.busy_s = seconds_between(busy_start, Clock::now());

    server->stop();
    server.reset();
    scheduler.reset();  // joins every job thread
    store->flush();
    out.store = store->counters();
    store.reset();
    for (const auto& client : out.jobs)
        for (const JobRecord& rec : client)
            if (rec.error.empty())
                out.traces.push_back(summarize_trace_file(jobs_dir + "/job-" +
                                                          std::to_string(rec.id) +
                                                          ".trace.jsonl"));
    fs::remove_all(dir);
    return out;
}

// Median run_job wall time of `spec` bare, with a checkpoint path and with
// a trace path; the differences price the two layers for this spec.
struct LayerCost {
    double checkpoint_s = 0.0;
    double trace_s = 0.0;
};

LayerCost price_layers(const JobSpec& spec, const std::string& dir)
{
    std::array<std::vector<double>, 3> wall;  // bare, checkpoint, trace
    const std::string checkpoint = dir + "/price.ckpt";
    const std::string trace = dir + "/price.trace.jsonl";
    for (std::size_t rep = 0; rep < kLayerReps; ++rep)
        for (std::size_t v = 0; v < wall.size(); ++v) {
            nautilus::serve::JobRunInputs inputs;
            if (v == 1) {
                if (!spec.evolutionary()) continue;
                inputs.checkpoint_path = checkpoint;
            }
            if (v == 2) inputs.trace_path = trace;
            const auto start = Clock::now();
            nautilus::serve::run_job(spec, inputs);
            wall[v].push_back(seconds_between(start, Clock::now()));
            fs::remove(checkpoint);  // a leftover checkpoint would make the next run resume
            fs::remove(trace);
        }
    LayerCost cost;
    if (spec.evolutionary()) cost.checkpoint_s = median(wall[1]) - median(wall[0]);
    cost.trace_s = median(wall[2]) - median(wall[0]);
    return cost;
}

// Runs the serve_mixed load for opt.seconds, checks every job, and fills
// `window` (untraced rounds) and `layers` (traced rounds).
void serve_mixed(const Options& opt, Report& report, Window& window, Layers& layers)
{
    SeedRng rng{opt.seed};
    std::array<std::vector<std::string>, kClients> plan;
    for (std::size_t c = 0; c < kClients; ++c) plan[c] = plan_client(c, rng);

    const std::string run_dir = opt.scratch + "/serve_mixed-" + std::to_string(::getpid());
    fs::remove_all(run_dir);
    fs::create_directories(run_dir);

    ServiceLayers& service = layers.service;
    std::vector<Round> rounds;
    run_rounds(opt, [&](bool traced) {
        Round r = serve_round(plan, run_dir + "/round-" + std::to_string(rounds.size()));
        (traced ? layers.traced_round_s : layers.untraced_round_s).push_back(r.busy_s);
        window.setup_s.push_back(r.setup_s);
        if (!opt.trace) {
            Window::Round round;
            round.seconds = r.busy_s;
            for (const auto& client : r.jobs)
                for (const JobRecord& rec : client) {
                    window.latency_s.push_back(rec.latency_s);
                    ++round.queries;
                }
            for (const RunTrace& t : r.traces) {
                round.genomes += t.calls;
                window.distinct += t.distinct;
            }
            window.rounds.push_back(round);
        }
        if (traced) {
            for (const RunTrace& t : r.traces) layers.add(t);
            for (const auto& client : r.jobs)
                for (const JobRecord& rec : client) {
                    service.queue_wait_s.push_back(rec.queue_wait_s);
                    service.run_s.push_back(rec.run_s);
                    service.post_s.push_back(rec.post_s);
                    if (rec.get_s > 0.0) service.get_s.push_back(rec.get_s);
                    service.non2xx += rec.non2xx;
                }
            service.store_hits += static_cast<double>(r.store.hits);
            service.store_misses += static_cast<double>(r.store.misses);
            service.store_writes += static_cast<double>(r.store.writes);
            service.store_flushes += static_cast<double>(r.store.flushes);
        }
        rounds.push_back(std::move(r));
    });

    // Output checks, outside the timed window.  Every job must match a
    // standalone serve::run_job of the same spec (the server-vs-standalone
    // contract), and the store must have been probed once per memo miss.
    std::map<std::string, std::string> standalone;  // spec -> rendered result
    for (const auto& client : plan)
        for (const std::string& spec : client)
            if (!standalone.count(spec)) {
                const JobSpec parsed = nautilus::serve::parse_job_spec(spec);
                standalone[spec] = render_result(parsed, nautilus::serve::run_job(parsed, {}));
            }
    for (const Round& r : rounds) {
        for (std::size_t c = 0; c < kClients; ++c)
            for (const JobRecord& rec : r.jobs[c]) {
                ++report.attempted;
                if (!rec.error.empty()) report.fail(rec.error);
                else if (rec.result != standalone[plan[c][rec.spec]])
                    report.fail("job " + std::to_string(rec.id) + " differs from standalone: " +
                                rec.result);
            }
        std::size_t distinct = 0;  // memo misses, from each job's run_end
        for (const RunTrace& t : r.traces) {
            distinct += t.distinct;
            if (t.wave_fresh != t.distinct)
                report.fail("eval_wave fresh " + std::to_string(t.wave_fresh) + " != distinct " +
                            std::to_string(t.distinct));
        }
        if (r.store.hits + r.store.misses != distinct)
            report.fail("store hits + misses " + std::to_string(r.store.hits + r.store.misses) +
                        " != memo misses " + std::to_string(distinct));
    }

    if (opt.trace) {
        // Price checkpoint and trace per spec, then average over the jobs
        // of a round (repeats included), as the server ran them.
        std::map<std::string, LayerCost> cost;
        for (const auto& [spec, result] : standalone)
            cost[spec] = price_layers(nautilus::serve::parse_job_spec(spec), run_dir);
        std::size_t jobs = 0;
        for (const auto& client : plan)
            for (const std::string& spec : client) {
                service.checkpoint_s_per_job += cost[spec].checkpoint_s;
                service.trace_s_per_job += cost[spec].trace_s;
                ++jobs;
            }
        service.checkpoint_s_per_job /= static_cast<double>(jobs);
        service.trace_s_per_job /= static_cast<double>(jobs);
        service.checkpoint_writes_per_job =
            static_cast<double>(layers.checkpoints) / static_cast<double>(layers.runs);
        service.trace_events_per_job =
            static_cast<double>(layers.events) / static_cast<double>(layers.runs);
        const double traced_rounds = static_cast<double>(rounds.size() / 2);
        service.store_hits /= traced_rounds;
        service.store_misses /= traced_rounds;
        service.store_writes /= traced_rounds;
        service.store_flushes /= traced_rounds;
    }
    fs::remove_all(run_dir);
    std::fprintf(stdout, "serve_mixed: %zu rounds of %zu jobs, %zu clients, capacity %zu\n",
                 rounds.size(), plan[0].size() + plan[1].size(), kClients, kCapacity);
}

}  // namespace

void run_serve_mixed(const Options& opt, Report& report)
{
    Window window;
    Layers layers;
    serve_mixed(opt, report, window, layers);
    if (opt.trace) add_per_layer(report, layers);
    else add_end_to_end(report, window);
}

ServiceLayers measure_service_layers(const Options& opt, Report& report)
{
    Options once = opt;
    once.trace = true;
    once.seconds = 0.0;
    Window window;
    Layers layers;
    serve_mixed(once, report, window, layers);
    return layers.service;
}

}  // namespace perfbench
