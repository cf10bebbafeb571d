#pragma once
// Embedded observability HTTP endpoint: a dependency-free POSIX-socket
// HTTP/1.1 server exposing the live metrics registry and progress tracker
// while a search runs.
//
// Endpoints:
//   GET /metrics   Prometheus text exposition (v0.0.4) of the registry plus
//                  the progress and lineage gauges -- scrapeable by Prometheus
//   GET /status    JSON run progress (obs::ProgressSnapshot) + uptime_seconds
//   GET /lineage   JSON lineage counters (obs::LineageCounters)
//   GET /logs      JSON tail of the server log ring (?n=K records)
//   GET /healthz   "ok" liveness probe
//   GET /          plain-text index of the above
//
// Telemetry: every connection is assigned a monotonically increasing
// request id, echoed back as an `X-Nautilus-Request-Id` header and stamped
// on an "access" record in the attached Logger (method, path, status,
// bytes, micros).  POST /jobs forwards the id into the JobApi so the
// resulting job's trace and server-log records carry it -- one grep on the
// id joins the access log, the server log and the engine trace.  Request
// handling also feeds self-metrics into the registry: http.requests (total
// and by status class), an http.request_seconds histogram and
// http.response_bytes.
//
// With a JobApi attached (attach_jobs), the server is also the submission
// plane for the multi-tenant job scheduler (src/serve/):
//   POST   /jobs        submit a JSON search spec, get a job id
//   GET    /jobs        list jobs and pool state
//   GET    /jobs/<id>   job status: state, progress snapshot, final result
//   DELETE /jobs/<id>   cancel (checkpoint-backed for ga/nsga2)
//
// Method discipline (RFC 9110): the read-only observability endpoints
// answer non-GET/HEAD with 405 plus an `Allow: GET, HEAD` header; a request
// carrying a body without a Content-Length header gets 411; request heads
// and declared bodies past the size cap get 413.
//
// Design: one bounded accept thread handles connections serially -- scrape
// traffic is one collector every few seconds, not user traffic, so there is
// nothing to win by going multi-threaded and a lot of shutdown complexity
// to lose.  Each request is parsed with a receive timeout, answered with
// Connection: close, and the socket is torn down; stop() shuts the
// listening socket down and joins the thread.  Reads of the registry and
// tracker are the snapshot paths, which are safe concurrently with engine
// and worker-thread updates.  Job submissions hand off to the JobApi
// implementation, which runs jobs on its own threads -- the accept thread
// never blocks on a search.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "obs/lineage.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"

namespace nautilus::obs {

// One response from the routing layer.  The reason phrase is derived from
// the status code; `allow` (when set) is emitted as an Allow: header, as
// RFC 9110 requires of 405 responses, and `retry_after` (when set) as a
// Retry-After: header (503 backpressure).
struct HttpResponse {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
    std::string allow;
    std::string retry_after;
};

// The job-plane hook: requests under /jobs are delegated here.  Implemented
// by serve::JobScheduler; obs depends only on this interface, never on the
// scheduler, preserving the layering (core -> obs <- serve).
class JobApi {
public:
    virtual ~JobApi() = default;

    // `path` is the full request path ("/jobs" or "/jobs/<id>", query
    // string already stripped); `body` is the request body (POST specs);
    // `request_id` is the HTTP request id (0 = none), stamped into jobs
    // created by POST so their traces and log records correlate with the
    // access log.  Must be callable from any thread.
    virtual HttpResponse handle_jobs(std::string_view method, std::string_view path,
                                     std::string_view body,
                                     std::uint64_t request_id) = 0;
};

// Requests (head plus declared body) larger than this get 413.
inline constexpr std::size_t kMaxRequestBytes = 65536;

// One request framed off the wire, or why it was not.  The views point into
// the bytes handed to frame_request.
struct HttpFrame {
    enum class Kind {
        incomplete,  // more bytes could complete the request
        request,     // a whole request: method, target and body are set
        reject,      // answer `status` (400, 411 or 413) with `message`
        drop,        // the peer stopped before the head ended: no answer
    };
    Kind kind = Kind::incomplete;
    int status = 0;
    std::string_view message;
    std::string_view method;  // set for requests, and rejects past the request line
    std::string_view target;
    std::string_view body;
};

// Frames the bytes received so far; `at_end` says no more will arrive (the
// peer closed, timed out or failed).  The head ends at the first blank
// line, and the request line is "METHOD SP target SP version".  A
// Content-Length must be 1*DIGIT (else 400), and a head or declared request
// past kMaxRequestBytes gets 413 before any arithmetic on the length.  A
// body that arrives without a Content-Length gets 411, one shorter than
// declared 400; bytes past the declared length are ignored.
HttpFrame frame_request(std::string_view bytes, bool at_end);

struct HttpServerConfig {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = pick an ephemeral port (see port())
};

class ObsHttpServer {
public:
    // Any source may be null; the matching endpoint then serves an
    // empty exposition / `{}`.
    ObsHttpServer(HttpServerConfig config, std::shared_ptr<MetricsRegistry> metrics,
                  std::shared_ptr<ProgressTracker> progress,
                  std::shared_ptr<LineageTracker> lineage = nullptr);
    ~ObsHttpServer();

    ObsHttpServer(const ObsHttpServer&) = delete;
    ObsHttpServer& operator=(const ObsHttpServer&) = delete;

    // Attach the job-submission plane (call before start()).  Requests
    // under /jobs are delegated to `api`; without one they 404.
    void attach_jobs(std::shared_ptr<JobApi> api) { jobs_ = std::move(api); }

    // Attach the structured service log (call before start()).  Enables
    // `/logs` and per-request access records; without one `/logs` 404s and
    // requests are not logged (self-metrics still record).
    void attach_logger(std::shared_ptr<Logger> logger) { logger_ = std::move(logger); }

    // Bind + listen + spawn the accept thread.  Throws std::runtime_error
    // when the address cannot be bound.
    void start();

    // Idempotent; joins the accept thread.
    void stop();

    bool running() const { return running_.load(std::memory_order_acquire); }
    // The bound port (resolved after start() when config.port was 0).
    std::uint16_t port() const { return port_; }
    std::uint64_t requests_served() const
    {
        return requests_.load(std::memory_order_relaxed);
    }

    // Seconds since construction (reset by start()); the `/status`
    // uptime_seconds field and the nautilus_process_uptime_seconds gauge.
    double uptime_seconds() const;

    // Full routing for one request -- method discipline, /jobs delegation,
    // read-only endpoints -- without touching a socket.  Exposed so the job
    // lifecycle golden tests can drive the exact HTTP surface in-process.
    // `target` may carry a query string (`/logs?n=5`); `request_id` is
    // forwarded to the job plane (0 = unassigned, as in direct test calls).
    HttpResponse respond(std::string_view method, std::string_view target,
                         std::string_view body, std::uint64_t request_id = 0) const;

private:
    void accept_loop();
    void handle_connection(int fd);
    // Post-response bookkeeping: self-metrics + the "access" log record.
    void record_request(std::string_view method, std::string_view target, int status,
                        std::size_t bytes, double seconds, std::uint64_t request_id);

    HttpServerConfig config_;
    std::shared_ptr<MetricsRegistry> metrics_;
    std::shared_ptr<ProgressTracker> progress_;
    std::shared_ptr<LineageTracker> lineage_;
    std::shared_ptr<JobApi> jobs_;
    std::shared_ptr<Logger> logger_;

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread thread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> next_request_id_{0};
    std::chrono::steady_clock::time_point started_ = std::chrono::steady_clock::now();
};

}  // namespace nautilus::obs
