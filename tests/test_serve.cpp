// Job server tests: spec parsing goldens, the job lifecycle API over the
// exact HTTP routing surface (no sockets needed), scheduler fairness,
// cancel -> resubmit -> bit-exact resume, and the headline determinism gate:
// a job run through the server under concurrent tenant load produces the
// same trace as the same spec run standalone, at worker caps 1 and 4.

#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/eval_store.hpp"
#include "obs/format.hpp"
#include "obs/http_server.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "obs/trace_runs.hpp"
#include "serve/engine_factory.hpp"
#include "serve/job_spec.hpp"

using namespace nautilus;
using namespace nautilus::serve;

namespace {

// A per-test scratch directory, recreated empty so stale checkpoints or
// traces from a previous run can never leak into a determinism comparison.
std::string fresh_dir(const std::string& name)
{
    const std::string dir = ::testing::TempDir() + "nautilus_serve_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// The trace's events; every line must parse.
std::vector<obs::TraceEvent> trace_events(const std::string& path)
{
    obs::TraceFile file = obs::load_trace(path);
    for (const std::size_t line : file.bad_lines)
        ADD_FAILURE() << path << ":" << line << ": unparseable trace line";
    return std::move(file.events);
}

// The `nautilus_trace inspect --check` invariants hold: no diagnostics.
void expect_trace_consistent(const std::string& path)
{
    for (const obs::Diagnostic& d : obs::check_runs(obs::fold_runs(obs::load_trace(path))))
        ADD_FAILURE() << path << ":" << d.line << ": " << d.text;
}

// The deterministic-family comparison, matching `nautilus_trace diff`'s
// contract: every event and every field must agree exactly except
// wall-clock readings, scheduling artifacts (waits) and store traffic (a
// shared warm store changes where values come from, never what they are).
void expect_traces_equal(const std::string& base_path, const std::string& cand_path)
{
    // "attempts" counts evaluation-function invocations, which a store hit
    // elides -- like store_hits it describes where values came from, not
    // what they are (the repo's attempt-accounting identity is
    // attempts + store_hits == fresh + retries).  "job_id"/"request_id" are
    // the server's telemetry identity tags on run_start: pure labels, absent
    // from standalone traces by construction.
    static const std::set<std::string> skip{
        "seconds",        "busy_seconds", "eval_seconds", "path",
        "waits",          "inflight_waits", "store_hits", "store_misses",
        "attempts",       "job_id",       "request_id",
    };
    const auto filter = [](const obs::TraceEvent& ev) {
        std::vector<std::pair<std::string, obs::FieldValue>> kept;
        for (const auto& [key, value] : ev.fields)
            if (skip.count(key) == 0) kept.push_back({key, value});
        return kept;
    };
    // job_summary is the server-only accounting epilogue (wall-clock and
    // store-traffic dominated); the search content it must agree with is
    // already covered by run_end.
    const auto strip_summaries = [](std::vector<obs::TraceEvent> events) {
        std::vector<obs::TraceEvent> kept;
        for (auto& ev : events)
            if (ev.type != "job_summary") kept.push_back(std::move(ev));
        return kept;
    };
    const auto base = strip_summaries(trace_events(base_path));
    const auto cand = strip_summaries(trace_events(cand_path));
    ASSERT_EQ(base.size(), cand.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(base[i].type, cand[i].type) << "event " << i;
        EXPECT_EQ(filter(base[i]), filter(cand[i]))
            << "event " << i << " (" << base[i].type << ")";
    }
}

std::string expect_invalid(const std::string& json)
{
    try {
        (void)parse_job_spec(json);
    }
    catch (const std::invalid_argument& e) {
        return e.what();
    }
    ADD_FAILURE() << "spec accepted: " << json;
    return {};
}

// Minimal blocking HTTP client used by the concurrency stress: sends one
// raw request (caller includes any Content-Length) and returns the response.
std::string http_request(std::uint16_t port, const std::string& request)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return {};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return {};
    }
    (void)!::send(fd, request.data(), request.size(), 0);
    std::string response;
    char buf[2048];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
}

std::string http_post_jobs(std::uint16_t port, const std::string& body)
{
    return http_request(port, "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                                  std::to_string(body.size()) + "\r\n\r\n" + body);
}

// ---------------------------------------------------------------- spec parse

TEST(JobSpec, ParsesAndCanonicalizesWithResolvedDefaults)
{
    const JobSpec spec = parse_job_spec(
        R"({"engine":"ga","generations":12,"seed":7,"workers":4,"guidance":"strong"})");
    EXPECT_EQ(spec.engine, "ga");
    EXPECT_EQ(spec.ip, "router");          // default
    EXPECT_EQ(spec.metric, "freq_mhz");    // per-IP default
    EXPECT_EQ(spec.direction, "max");      // per-metric default
    EXPECT_EQ(spec.workers, 4u);
    EXPECT_EQ(canonical_spec_json(spec),
              R"({"engine":"ga","ip":"router","metric":"freq_mhz","direction":"max",)"
              R"("guidance":"strong","generations":12,"seed":7,"workers":4})");
    // Canonicalization is what keys identity: a reordered spec with explicit
    // defaults is the same job (same fingerprint, same checkpoint file).
    const JobSpec same = parse_job_spec(
        R"({"workers":4,"seed":7,"ip":"router","guidance":"strong","engine":"ga",)"
        R"("generations":12})");
    EXPECT_EQ(spec_fingerprint(spec), spec_fingerprint(same));
    EXPECT_EQ(checkpoint_file("d", spec), checkpoint_file("d", same));
    EXPECT_NE(checkpoint_file("d", spec).find("d/spec-"), std::string::npos);

    const JobSpec other = parse_job_spec(R"({"engine":"ga","generations":12,"seed":8})");
    EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(other));
}

TEST(JobSpec, MalformedSpecsGetActionableMessages)
{
    EXPECT_NE(expect_invalid(R"({"engine":"gaa","generations":5})")
                  .find("unknown engine 'gaa' (expected one of: ga, nsga2, random, sa, hc)"),
              std::string::npos);
    EXPECT_NE(expect_invalid(R"({"generations":5})").find("missing field 'engine'"),
              std::string::npos);
    EXPECT_NE(expect_invalid(R"({"engine":"ga"})").find("missing field 'generations'"),
              std::string::npos);
    EXPECT_NE(expect_invalid(R"({"engine":"sa"})").find("missing field 'evals'"),
              std::string::npos);
    EXPECT_NE(expect_invalid(R"({"engine":"ga","generations":5,"workers":-2})")
                  .find("field 'workers' must be a non-negative integer (got -2)"),
              std::string::npos);
    EXPECT_NE(expect_invalid(R"({"engine":"ga","generations":5,"workers":0})")
                  .find("field 'workers' must be a positive integer (got 0)"),
              std::string::npos);
    EXPECT_NE(expect_invalid(R"({"engine":"nsga2","generations":5})")
                  .find("missing field 'metric2'"),
              std::string::npos);
    EXPECT_NE(expect_invalid(R"({"engine":"ga","generations":5,"bogus":1})")
                  .find("unknown field 'bogus'"),
              std::string::npos);
    EXPECT_NE(expect_invalid(R"({"engine":"ga","generations":5,"guidance":"estimated"})")
                  .find("'estimated'"),
              std::string::npos);
    EXPECT_NE(expect_invalid(R"({"engine":"random","evals":30,"generations":5})")
                  .find("generations"),
              std::string::npos);
    EXPECT_NE(expect_invalid("not json at all").find("not valid JSON"),
              std::string::npos);
}

// ------------------------------------------------------------ job lifecycle

TEST(JobScheduler, SubmitRunsToDoneWithResult)
{
    SchedulerConfig cfg;
    cfg.worker_capacity = 2;
    cfg.jobs_dir = fresh_dir("lifecycle");
    JobScheduler scheduler{cfg};

    const SubmitResult r = scheduler.submit(
        R"({"engine":"ga","generations":4,"seed":3,"workers":2})");
    ASSERT_EQ(r.status, 201);
    ASSERT_EQ(r.id, 1u);
    ASSERT_TRUE(scheduler.wait(r.id, 60.0));
    EXPECT_EQ(scheduler.state(r.id), JobState::done);

    const std::string status = scheduler.status_json(r.id);
    EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos);
    EXPECT_NE(status.find("\"result\":{\"feasible\":true"), std::string::npos);
    EXPECT_NE(status.find("\"best\":"), std::string::npos);
    EXPECT_NE(status.find("\"genome\":\""), std::string::npos);
    // The per-job trace landed next to the checkpoint directory.
    EXPECT_TRUE(std::ifstream{scheduler.trace_path_for(r.id)}.good());
    // A completed evolutionary job leaves no checkpoint behind.
    const JobSpec spec = parse_job_spec(
        R"({"engine":"ga","generations":4,"seed":3,"workers":2})");
    EXPECT_FALSE(std::ifstream{checkpoint_file(cfg.jobs_dir, spec)}.good());
}

TEST(JobScheduler, LifecycleOverHttpRoutingGoldens)
{
    SchedulerConfig cfg;
    cfg.worker_capacity = 2;
    cfg.jobs_dir = fresh_dir("http_goldens");
    auto scheduler = std::make_shared<JobScheduler>(cfg);
    obs::ObsHttpServer server{{}, nullptr, nullptr};
    server.attach_jobs(scheduler);  // no sockets: drive respond() directly

    // Malformed specs map to 400 with the parser's actionable message.
    obs::HttpResponse r = server.respond("POST", "/jobs", R"({"engine":"warp"})");
    EXPECT_EQ(r.status, 400);
    EXPECT_NE(r.body.find("unknown engine 'warp'"), std::string::npos);
    r = server.respond("POST", "/jobs", R"({"engine":"ga"})");
    EXPECT_EQ(r.status, 400);
    EXPECT_NE(r.body.find("missing field 'generations'"), std::string::npos);
    r = server.respond("POST", "/jobs", R"({"engine":"ga","generations":2,"workers":-1})");
    EXPECT_EQ(r.status, 400);
    EXPECT_NE(r.body.find("'workers'"), std::string::npos);

    // Submit -> 201 with the canonical spec echoed; lifecycle reaches done.
    r = server.respond("POST", "/jobs",
                       R"({"engine":"random","evals":25,"seed":4,"workers":1})");
    EXPECT_EQ(r.status, 201);
    EXPECT_EQ(r.content_type, "application/json");
    EXPECT_NE(r.body.find("\"id\":1"), std::string::npos);
    EXPECT_NE(r.body.find("\"spec\":{\"engine\":\"random\""), std::string::npos);
    ASSERT_TRUE(scheduler->wait(1, 60.0));
    r = server.respond("GET", "/jobs/1", {});
    EXPECT_EQ(r.status, 200);
    EXPECT_NE(r.body.find("\"state\":\"done\""), std::string::npos);

    // List endpoint sees the job and the pool state.
    r = server.respond("GET", "/jobs", {});
    EXPECT_EQ(r.status, 200);
    EXPECT_NE(r.body.find("\"capacity\":2"), std::string::npos);
    EXPECT_NE(r.body.find("\"id\":1"), std::string::npos);

    // Unknown ids and non-numeric ids are 404; wrong methods are 405 with
    // the RFC-required Allow header naming what the resource supports.
    EXPECT_EQ(server.respond("GET", "/jobs/99", {}).status, 404);
    EXPECT_EQ(server.respond("DELETE", "/jobs/99", {}).status, 404);
    EXPECT_EQ(server.respond("GET", "/jobs/abc", {}).status, 404);
    r = server.respond("PUT", "/jobs", "x");
    EXPECT_EQ(r.status, 405);
    EXPECT_EQ(r.allow, "GET, POST");
    r = server.respond("POST", "/jobs/1", "x");
    EXPECT_EQ(r.status, 405);
    EXPECT_EQ(r.allow, "GET, DELETE");

    // Cancelling a finished job is an idempotent no-op.
    r = server.respond("DELETE", "/jobs/1", {});
    EXPECT_EQ(r.status, 200);
    EXPECT_NE(r.body.find("\"state\":\"done\""), std::string::npos);
}

TEST(JobScheduler, DuplicateActiveSpecIsRejected409)
{
    SchedulerConfig cfg;
    cfg.worker_capacity = 1;
    cfg.jobs_dir = fresh_dir("duplicate");
    JobScheduler scheduler{cfg};

    const std::string spec = R"({"engine":"ga","generations":300,"seed":5,"workers":1})";
    const SubmitResult first = scheduler.submit(spec);
    ASSERT_EQ(first.status, 201);
    const SubmitResult dup = scheduler.submit(spec);
    EXPECT_EQ(dup.status, 409);
    EXPECT_NE(dup.error.find("already active as job 1"), std::string::npos);

    ASSERT_TRUE(scheduler.cancel(first.id));
    ASSERT_TRUE(scheduler.wait(first.id, 60.0));
    // Terminal jobs no longer block resubmission of the same spec.
    const SubmitResult again = scheduler.submit(spec);
    EXPECT_EQ(again.status, 201);
    ASSERT_TRUE(scheduler.cancel(again.id));
    ASSERT_TRUE(scheduler.wait(again.id, 60.0));
}

// ------------------------------------------- cancel -> resubmit -> resume

// Deterministic resume: plant a checkpoint at a known generation through the
// exact machinery a server-side cancel uses (run_job halting at a boundary,
// writing to the scheduler's fingerprint-keyed checkpoint path), then submit
// the same spec.  The job must resume -- not restart -- and finish with the
// same best as an uninterrupted run.
TEST(JobScheduler, ResubmittedSpecResumesFromCancelCheckpointBitExactly)
{
    const std::string dir = fresh_dir("resume");
    const std::string spec_json =
        R"({"engine":"ga","generations":10,"seed":6,"workers":2})";
    const JobSpec spec = parse_job_spec(spec_json);

    // Reference: the uninterrupted run.
    JobRunInputs ref;
    const JobOutcome full = run_job(spec, ref);
    ASSERT_TRUE(full.feasible);

    // "Cancelled" run: halt with a checkpoint at generation 4, exactly what
    // DELETE /jobs/<id> produces when it lands mid-run.
    JobRunInputs halted;
    halted.checkpoint_path = checkpoint_file(dir, spec);
    halted.halt_at_generation = 4;
    const JobOutcome partial = run_job(spec, halted);
    EXPECT_TRUE(partial.halted);
    ASSERT_TRUE(std::ifstream{halted.checkpoint_path}.good());

    // Resubmit through the scheduler: it finds the checkpoint and resumes.
    SchedulerConfig cfg;
    cfg.worker_capacity = 4;
    cfg.jobs_dir = dir;
    JobScheduler scheduler{cfg};
    const SubmitResult r = scheduler.submit(spec_json);
    ASSERT_EQ(r.status, 201);
    ASSERT_TRUE(scheduler.wait(r.id, 60.0));
    EXPECT_EQ(scheduler.state(r.id), JobState::done);
    const std::string status = scheduler.status_json(r.id);
    EXPECT_NE(status.find("\"resumed\":true"), std::string::npos);

    // Bit-exact: the resumed job's final best equals the uninterrupted run's.
    std::string best = "\"best\":";
    obs::append_json_double(best, full.best);
    EXPECT_NE(status.find(best), std::string::npos) << status;
    // ... and the checkpoint was cleaned up on completion.
    EXPECT_FALSE(std::ifstream{checkpoint_file(dir, spec)}.good());
}

// Live cancel over the API: timing-agnostic (the job may finish before the
// cancel lands), but every observable path must stay consistent and a
// resumable job must finish with the reference best after resubmission.
TEST(JobScheduler, LiveCancelThenResubmitReachesReferenceResult)
{
    const std::string dir = fresh_dir("live_cancel");
    const std::string spec_json =
        R"({"engine":"ga","generations":250,"seed":9,"workers":2})";
    const JobSpec spec = parse_job_spec(spec_json);
    const JobOutcome full = run_job(spec, {});
    ASSERT_TRUE(full.feasible);

    SchedulerConfig cfg;
    cfg.worker_capacity = 2;
    cfg.jobs_dir = dir;
    JobScheduler scheduler{cfg};
    const SubmitResult r = scheduler.submit(spec_json);
    ASSERT_EQ(r.status, 201);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(scheduler.cancel(r.id));
    ASSERT_TRUE(scheduler.wait(r.id, 60.0));

    std::uint64_t final_id = r.id;
    if (scheduler.state(r.id) == JobState::cancelled) {
        const SubmitResult again = scheduler.submit(spec_json);
        ASSERT_EQ(again.status, 201);
        ASSERT_TRUE(scheduler.wait(again.id, 120.0));
        final_id = again.id;
    }
    ASSERT_EQ(scheduler.state(final_id), JobState::done);
    std::string best = "\"best\":";
    obs::append_json_double(best, full.best);
    EXPECT_NE(scheduler.status_json(final_id).find(best), std::string::npos);
}

// ------------------------------------------------------------------ fairness

// Strict FIFO admission: with capacity 3, a wide job (2 slots) behind a
// running wide job must not be leapfrogged by a later narrow job that would
// fit in the free slot -- and the narrow job still runs right after.  No
// starvation in either direction; admission order is submission order.
TEST(JobScheduler, FifoAdmissionPreventsStarvation)
{
    SchedulerConfig cfg;
    cfg.worker_capacity = 3;
    cfg.jobs_dir = fresh_dir("fairness");
    JobScheduler scheduler{cfg};

    const SubmitResult big = scheduler.submit(
        R"({"engine":"ga","generations":250,"seed":21,"workers":2})");
    ASSERT_EQ(big.status, 201);
    // Wait until the big job holds its 2 slots (leaving 1 free).
    for (int i = 0; i < 200 && scheduler.state(big.id) != JobState::running; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(scheduler.state(big.id), JobState::running);

    const SubmitResult wide = scheduler.submit(
        R"({"engine":"ga","generations":3,"seed":22,"workers":2})");
    const SubmitResult narrow = scheduler.submit(
        R"({"engine":"ga","generations":3,"seed":23,"workers":1})");
    ASSERT_EQ(wide.status, 201);
    ASSERT_EQ(narrow.status, 201);

    ASSERT_TRUE(scheduler.wait(big.id, 120.0));
    ASSERT_TRUE(scheduler.wait(wide.id, 120.0));
    ASSERT_TRUE(scheduler.wait(narrow.id, 120.0));
    EXPECT_EQ(scheduler.state(big.id), JobState::done);
    EXPECT_EQ(scheduler.state(wide.id), JobState::done);
    EXPECT_EQ(scheduler.state(narrow.id), JobState::done);

    const std::vector<std::uint64_t> expected{big.id, wide.id, narrow.id};
    EXPECT_EQ(scheduler.admission_order(), expected);
}

// ---------------------------------------------------------- determinism gate

// The headline guarantee: a spec run through the server under concurrent
// sibling load produces a trace in exact deterministic-family agreement with
// the same spec run standalone -- at worker caps 1 and 4, for both the GA
// and NSGA-II, with all server jobs sharing one EvalStore.
// One (engine, worker cap) case.  It prints as its case name rather than
// as a raw `const char*`: the value printed for a pointer is an address,
// which differs from run to run under address-space randomisation and
// would leak into the test's listed name.
struct EngineCap {
    const char* engine;
    int cap;

    friend void PrintTo(const EngineCap& p, std::ostream* os)
    {
        *os << p.engine << "_w" << p.cap;
    }
};

class ServerDeterminism : public ::testing::TestWithParam<EngineCap> {
};

TEST_P(ServerDeterminism, ServerJobTraceMatchesStandaloneRun)
{
    const auto [engine, cap] = GetParam();
    const std::string name = std::string{engine} + "_w" + std::to_string(cap);
    const std::string dir = fresh_dir("determinism_" + name);

    const auto spec_for = [&](std::uint64_t seed) {
        std::string s = R"({"engine":")";
        s += engine;
        s += "\"";
        if (std::string{engine} == "nsga2") s += R"(,"metric2":"area_luts")";
        s += R"(,"generations":5,"seed":)" + std::to_string(seed);
        s += R"(,"workers":)" + std::to_string(cap) + "}";
        return s;
    };

    // Standalone reference: same spec, bare run_job, checkpointing enabled
    // (the scheduler always checkpoints evolutionary jobs, and checkpoint
    // trace events are part of the comparison).
    const JobSpec spec = parse_job_spec(spec_for(2015));
    JobRunInputs ref;
    ref.trace_path = dir + "/ref.trace.jsonl";
    ref.checkpoint_path = dir + "/ref.ckpt";
    const JobOutcome standalone = run_job(spec, ref);
    ASSERT_TRUE(standalone.feasible);
    std::remove(ref.checkpoint_path.c_str());

    // Server side: three concurrent sibling jobs (two decoy seeds) over a
    // shared store and a shared worker pool wide enough to overlap them.
    EvalStoreConfig store_cfg;
    store_cfg.path = dir + "/store";
    SchedulerConfig cfg;
    cfg.worker_capacity = static_cast<std::size_t>(cap) + 2;
    cfg.jobs_dir = dir;
    cfg.store = std::make_shared<EvalStore>(store_cfg);
    JobScheduler scheduler{cfg};

    const SubmitResult target = scheduler.submit(spec_for(2015));
    const SubmitResult decoy1 = scheduler.submit(spec_for(77));
    const SubmitResult decoy2 = scheduler.submit(spec_for(99));
    ASSERT_EQ(target.status, 201);
    ASSERT_EQ(decoy1.status, 201);
    ASSERT_EQ(decoy2.status, 201);
    for (const auto& job : {target, decoy1, decoy2}) {
        ASSERT_TRUE(scheduler.wait(job.id, 120.0));
        ASSERT_EQ(scheduler.state(job.id), JobState::done);
    }

    expect_traces_equal(ref.trace_path, scheduler.trace_path_for(target.id));
    expect_trace_consistent(ref.trace_path);
    expect_trace_consistent(scheduler.trace_path_for(target.id));
}

INSTANTIATE_TEST_SUITE_P(EnginesAndCaps, ServerDeterminism,
                         ::testing::Values(EngineCap{"ga", 1}, EngineCap{"ga", 4},
                                           EngineCap{"nsga2", 1}, EngineCap{"nsga2", 4}),
                         [](const auto& info) { return ::testing::PrintToString(info.param); });

// Budgeted jobs (random, SA, HC) close their server trace with a
// job_summary that reconciles with the run's own run_end, exactly as
// `nautilus_trace inspect --check` demands: distinct evals, store hits,
// retries and fresh evals all agree, and the attempts rule closes.  A warm
// rerun over the shared store makes the store-hit reconciliation
// non-trivial.
class BudgetedJobAccounting : public ::testing::TestWithParam<const char*> {
};

TEST_P(BudgetedJobAccounting, JobSummaryReconcilesWithRunEnd)
{
    const std::string engine = GetParam();
    const std::string dir = fresh_dir("budgeted_" + engine);
    EvalStoreConfig store_cfg;
    store_cfg.path = dir + "/store";
    SchedulerConfig cfg;
    cfg.worker_capacity = 2;
    cfg.jobs_dir = dir;
    cfg.store = std::make_shared<EvalStore>(store_cfg);
    JobScheduler scheduler{cfg};

    const std::string spec =
        R"({"engine":")" + engine + R"(","evals":60,"seed":7,"workers":2})";
    for (const char* pass : {"cold", "warm"}) {
        SCOPED_TRACE(pass);
        const SubmitResult job = scheduler.submit(spec);
        ASSERT_EQ(job.status, 201);
        ASSERT_TRUE(scheduler.wait(job.id, 60.0));
        ASSERT_EQ(scheduler.state(job.id), JobState::done);

        std::optional<obs::TraceEvent> run_end;
        std::optional<obs::TraceEvent> summary;
        for (obs::TraceEvent& ev : trace_events(scheduler.trace_path_for(job.id))) {
            if (ev.type == "run_end") run_end = std::move(ev);
            else if (ev.type == "job_summary") summary = std::move(ev);
        }
        ASSERT_TRUE(run_end.has_value());
        ASSERT_TRUE(summary.has_value());
        const auto field = [](const obs::TraceEvent& ev, const char* key) {
            const std::optional<std::uint64_t> v = ev.unsigned_int(key);
            EXPECT_TRUE(v.has_value()) << ev.type << " lacks " << key;
            return v.value_or(0);
        };
        const std::uint64_t distinct = field(*run_end, "distinct_evals");
        const std::uint64_t hits = field(*run_end, "store_hits");
        const std::uint64_t retries = field(*run_end, "retries");
        EXPECT_EQ(distinct, 60u);
        EXPECT_EQ(field(*summary, "distinct_evals"), distinct);
        EXPECT_EQ(field(*summary, "store_hits"), hits);
        EXPECT_EQ(field(*summary, "retries"), retries);
        EXPECT_EQ(field(*summary, "fresh_evals"), distinct - hits);
        EXPECT_EQ(field(*run_end, "attempts") + hits, distinct + retries);
        EXPECT_EQ(hits, std::string{pass} == "warm" ? distinct : 0u);
        EXPECT_NE(scheduler.status_json(job.id).find("\"distinct_evals\":60,"),
                  std::string::npos);
        expect_trace_consistent(scheduler.trace_path_for(job.id));
    }
}

INSTANTIATE_TEST_SUITE_P(Engines, BudgetedJobAccounting,
                         ::testing::Values("random", "sa", "hc"));

// ---------------------------------------------------------------- stress

// The TSan target (name matches the CI '*Concurren*' filter): 8 short jobs
// with mixed worker caps submitted over real sockets while a scraper thread
// hammers /metrics, /jobs and /jobs/<id>.  Everything must be data-race
// free and every job must reach a terminal state.
TEST(JobSchedulerConcurrency, MixedJobsUnderScrapeLoadAreSafe)
{
    const std::string dir = fresh_dir("stress");
    EvalStoreConfig store_cfg;
    store_cfg.path = dir + "/store";
    SchedulerConfig cfg;
    cfg.worker_capacity = 3;
    cfg.jobs_dir = dir;
    cfg.store = std::make_shared<EvalStore>(store_cfg);
    cfg.metrics = std::make_shared<obs::MetricsRegistry>();
    auto scheduler = std::make_shared<JobScheduler>(cfg);

    obs::ObsHttpServer server{{}, cfg.metrics, nullptr};
    server.attach_jobs(scheduler);
    server.start();

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> scrapes{0};
    std::thread scraper{[&] {
        std::uint64_t probe = 1;
        while (!done.load(std::memory_order_acquire)) {
            const std::string m =
                http_request(server.port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
            const std::string l =
                http_request(server.port(), "GET /jobs HTTP/1.1\r\nHost: x\r\n\r\n");
            const std::string j = http_request(
                server.port(), "GET /jobs/" + std::to_string(probe % 8 + 1) +
                                   " HTTP/1.1\r\nHost: x\r\n\r\n");
            if (!m.empty() && !l.empty() && !j.empty())
                scrapes.fetch_add(1, std::memory_order_relaxed);
            ++probe;
        }
    }};

    const std::vector<std::string> specs{
        R"({"engine":"ga","generations":4,"seed":1,"workers":1})",
        R"({"engine":"ga","generations":4,"seed":2,"workers":2})",
        R"({"engine":"random","evals":30,"seed":3,"workers":3})",
        R"({"engine":"sa","evals":30,"seed":4,"workers":1})",
        R"({"engine":"hc","evals":30,"seed":5,"workers":2})",
        R"({"engine":"nsga2","metric2":"area_luts","generations":3,"seed":6,"workers":2})",
        R"({"engine":"ga","generations":4,"seed":7,"workers":3})",
        R"({"engine":"random","evals":30,"seed":8,"workers":1})",
    };
    std::vector<std::thread> submitters;
    std::atomic<int> accepted{0};
    submitters.reserve(specs.size());
    for (const std::string& spec : specs)
        submitters.emplace_back([&, spec] {
            const std::string response = http_post_jobs(server.port(), spec);
            if (response.find("201") != std::string::npos)
                accepted.fetch_add(1, std::memory_order_relaxed);
        });
    for (std::thread& t : submitters) t.join();
    ASSERT_EQ(accepted.load(), static_cast<int>(specs.size()));

    for (std::uint64_t id = 1; id <= specs.size(); ++id) {
        ASSERT_TRUE(scheduler->wait(id, 120.0)) << "job " << id;
        EXPECT_EQ(scheduler->state(id), JobState::done) << "job " << id;
    }
    done.store(true, std::memory_order_release);
    scraper.join();
    server.stop();
    EXPECT_GT(scrapes.load(), 0u);

    // The scheduler metrics agree with what happened.
    const std::string exposition = server.respond("GET", "/metrics", {}).body;
    EXPECT_NE(exposition.find("nautilus_jobs_submitted_total 8"), std::string::npos);
    EXPECT_NE(exposition.find("nautilus_jobs_completed_total 8"), std::string::npos);
    EXPECT_NE(exposition.find("nautilus_jobs_running 0"), std::string::npos);
    EXPECT_NE(exposition.find("nautilus_jobs_capacity 3"), std::string::npos);
}

// ---------------------------------------------------------------- telemetry

// First decimal number following `key` in `text`, or 0 when absent.
std::uint64_t number_after(const std::string& text, const std::string& key)
{
    const auto pos = text.find(key);
    if (pos == std::string::npos) return 0;
    std::uint64_t n = 0;
    for (std::size_t i = pos + key.size(); i < text.size() && text[i] >= '0' &&
                                           text[i] <= '9';
         ++i)
        n = n * 10 + static_cast<std::uint64_t>(text[i] - '0');
    return n;
}

// The ISSUE's headline observability acceptance: the request id echoed by
// POST /jobs joins three planes -- the access log, the scheduler's "job"
// lifecycle records, and the job's own trace run_start -- with one grep.
TEST(JobServerTelemetry, RequestIdJoinsAccessLogServerLogAndTrace)
{
    const std::string dir = fresh_dir("telemetry_join");
    const std::string log_path = dir + "/server.log.jsonl";

    obs::LogConfig lc;
    lc.path = log_path;
    auto logger = std::make_shared<obs::Logger>(lc);

    SchedulerConfig cfg;
    cfg.worker_capacity = 2;
    cfg.jobs_dir = dir;
    cfg.metrics = std::make_shared<obs::MetricsRegistry>();
    cfg.log = logger;
    auto scheduler = std::make_shared<JobScheduler>(cfg);

    obs::ObsHttpServer server{{}, cfg.metrics, nullptr};
    server.attach_logger(logger);
    server.attach_jobs(scheduler);
    server.start();

    // Burn a couple of request ids first so the test cannot pass by matching
    // a default-constructed zero or an id that happens to equal the job id.
    (void)http_request(server.port(), "GET /status HTTP/1.1\r\nHost: x\r\n\r\n");
    (void)http_request(server.port(), "GET /jobs HTTP/1.1\r\nHost: x\r\n\r\n");

    const std::string response = http_post_jobs(
        server.port(), R"({"engine":"ga","generations":3,"seed":11,"workers":2})");
    ASSERT_NE(response.find("201"), std::string::npos) << response;
    const std::uint64_t rid = number_after(response, "X-Nautilus-Request-Id: ");
    const std::uint64_t job_id = number_after(response, "\"id\":");
    ASSERT_GT(rid, 0u);
    ASSERT_GT(job_id, 0u);
    ASSERT_NE(rid, job_id);  // ids come from different sequences here
    ASSERT_TRUE(scheduler->wait(job_id, 60.0));
    ASSERT_EQ(scheduler->state(job_id), JobState::done);

    // The status document carries the submitting request id and the
    // resource-accounting block.
    const std::string status = scheduler->status_json(job_id);
    EXPECT_NE(status.find("\"request_id\":" + std::to_string(rid)), std::string::npos)
        << status;
    EXPECT_NE(status.find("\"accounting\":{"), std::string::npos) << status;
    EXPECT_NE(status.find("\"queue_wait_seconds\":"), std::string::npos);
    EXPECT_NE(status.find("\"run_seconds\":"), std::string::npos);
    EXPECT_NE(status.find("\"fresh_evals\":"), std::string::npos);

    // /logs serves the same records the file sink got.
    const std::string tail =
        http_request(server.port(), "GET /logs?n=200 HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_NE(tail.find("\"type\":\"access\""), std::string::npos) << tail;
    server.stop();

    // Join plane 1+2: every log line (access + job records) parses with the
    // exact JSONL parser the trace tooling uses, and the request id locates
    // both the access record of the POST and the job lifecycle records.
    std::ifstream log_in{log_path};
    ASSERT_TRUE(log_in.good());
    bool access_joined = false;
    bool job_joined = false;
    std::string line;
    while (std::getline(log_in, line)) {
        const auto ev = obs::parse_jsonl_line(line);
        ASSERT_TRUE(ev.has_value()) << line;
        if (ev->unsigned_int("request_id").value_or(0) != rid) continue;
        if (ev->type == "access") {
            EXPECT_EQ(ev->string("method").value_or(""), "POST");
            EXPECT_EQ(ev->string("path").value_or(""), "/jobs");
            EXPECT_EQ(ev->unsigned_int("status").value_or(0), 201u);
            access_joined = true;
        }
        if (ev->type == "job") {
            EXPECT_EQ(ev->unsigned_int("job_id").value_or(0), job_id);
            job_joined = true;
        }
    }
    EXPECT_TRUE(access_joined);
    EXPECT_TRUE(job_joined);

    // Join plane 3: the trace's run_start carries the same identity, and the
    // job_summary epilogue is present and tagged too.
    const auto trace = trace_events(scheduler->trace_path_for(job_id));
    bool run_start_joined = false;
    bool summary_joined = false;
    for (const auto& ev : trace) {
        if (ev.type == "run_start") {
            EXPECT_EQ(ev.unsigned_int("job_id").value_or(0), job_id);
            EXPECT_EQ(ev.unsigned_int("request_id").value_or(0), rid);
            run_start_joined = true;
        }
        if (ev.type == "job_summary") {
            EXPECT_EQ(ev.unsigned_int("request_id").value_or(0), rid);
            EXPECT_TRUE(ev.unsigned_int("distinct_evals").has_value());
            summary_joined = true;
        }
    }
    EXPECT_TRUE(run_start_joined);
    EXPECT_TRUE(summary_joined);
}

// The server reports the jobs it ran: every job feeds the scheduler's
// metrics registry and lineage tracker, which the CLI hands to the HTTP
// server, and /status carries no progress of a run nothing feeds.
TEST(JobServerTelemetry, FinishedJobFeedsLineageAndMetrics)
{
    SchedulerConfig cfg;
    cfg.jobs_dir = fresh_dir("telemetry_reports");
    cfg.metrics = std::make_shared<obs::MetricsRegistry>();
    auto scheduler = std::make_shared<JobScheduler>(cfg);
    obs::ObsHttpServer server{{}, cfg.metrics, nullptr, scheduler->lineage()};
    server.attach_jobs(scheduler);  // no sockets: drive respond() directly

    obs::HttpResponse r = server.respond(
        "POST", "/jobs", R"({"engine":"ga","generations":4,"seed":5,"workers":2})");
    ASSERT_EQ(r.status, 201) << r.body;
    const std::uint64_t id = number_after(r.body, "\"id\":");
    ASSERT_TRUE(scheduler->wait(id, 60.0));
    ASSERT_EQ(scheduler->state(id), JobState::done);
    std::optional<std::uint64_t> attempts;
    for (const obs::TraceEvent& ev : trace_events(scheduler->trace_path_for(id)))
        if (ev.type == "run_end") attempts = ev.unsigned_int("attempts");
    ASSERT_TRUE(attempts.has_value());
    ASSERT_GT(*attempts, 0u);

    r = server.respond("GET", "/lineage", {});
    EXPECT_NE(r.body.find("\"runs\":1,"), std::string::npos) << r.body;
    EXPECT_NE(r.body.find("\"last_run\":{\"engine\":\"ga\""), std::string::npos) << r.body;
    r = server.respond("GET", "/metrics", {});
    EXPECT_NE(r.body.find("\nnautilus_eval_attempts_total " + std::to_string(*attempts) + "\n"),
              std::string::npos)
        << r.body;
    r = server.respond("GET", "/status", {});
    EXPECT_EQ(r.body.rfind("{\"uptime_seconds\":", 0), 0u) << r.body;
    EXPECT_EQ(r.body.find("runs_started"), std::string::npos) << r.body;
}

// TSan target (matches the CI '*Concurren*' filter): scrape /logs and
// /metrics continuously while a 4-worker GA job runs with logging on.  The
// seqlock ring and the metrics registry must be race-free under this load.
TEST(JobSchedulerConcurrency, LogsAndMetricsScrapeDuringGaJobIsSafe)
{
    const std::string dir = fresh_dir("telemetry_stress");
    auto logger = std::make_shared<obs::Logger>(obs::LogConfig{});  // ring only

    SchedulerConfig cfg;
    cfg.worker_capacity = 4;
    cfg.jobs_dir = dir;
    cfg.metrics = std::make_shared<obs::MetricsRegistry>();
    cfg.log = logger;
    auto scheduler = std::make_shared<JobScheduler>(cfg);

    obs::ObsHttpServer server{{}, cfg.metrics, nullptr};
    server.attach_logger(logger);
    server.attach_jobs(scheduler);
    server.start();

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> scrapes{0};
    std::thread scraper{[&] {
        while (!done.load(std::memory_order_acquire)) {
            const std::string logs = http_request(
                server.port(), "GET /logs?n=50 HTTP/1.1\r\nHost: x\r\n\r\n");
            const std::string metrics = http_request(
                server.port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
            if (!logs.empty() && !metrics.empty())
                scrapes.fetch_add(1, std::memory_order_relaxed);
        }
    }};

    const std::string response = http_post_jobs(
        server.port(), R"({"engine":"ga","generations":6,"seed":12,"workers":4})");
    ASSERT_NE(response.find("201"), std::string::npos) << response;
    const std::uint64_t job_id = number_after(response, "\"id\":");
    ASSERT_GT(job_id, 0u);
    ASSERT_TRUE(scheduler->wait(job_id, 120.0));
    EXPECT_EQ(scheduler->state(job_id), JobState::done);

    done.store(true, std::memory_order_release);
    scraper.join();
    server.stop();
    EXPECT_GT(scrapes.load(), 0u);
    EXPECT_GT(logger->records_logged(), 0u);

    // The HTTP self-metrics counted the scrape traffic.
    const std::string exposition = server.respond("GET", "/metrics", {}).body;
    EXPECT_NE(exposition.find("nautilus_http_requests_total"), std::string::npos);
    EXPECT_NE(exposition.find("nautilus_http_requests_2xx_total"), std::string::npos);
    EXPECT_NE(exposition.find("nautilus_http_request_seconds_count"), std::string::npos);
    EXPECT_NE(exposition.find("nautilus_http_response_bytes_total"), std::string::npos);
    EXPECT_NE(exposition.find("nautilus_job_queue_wait_seconds_count"), std::string::npos);
    EXPECT_NE(exposition.find("nautilus_job_run_seconds_count"), std::string::npos);
}

}  // namespace
