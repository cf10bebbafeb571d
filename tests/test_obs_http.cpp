// ObsHttpServer tests: endpoint routing, real-socket round trips, and a
// scrape-under-load test that runs HTTP GETs concurrently with a
// multi-worker GA evaluation (exercised under TSan in CI).

#include "obs/http_server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "core/ga.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"

using namespace nautilus;
using namespace nautilus::obs;

namespace {

// Minimal blocking HTTP client: one GET, returns the full response text.
std::string http_get(std::uint16_t port, const std::string& target,
                     const std::string& method = "GET")
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
    const std::string request =
        method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
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

// Same client, but the caller supplies the raw request text (used to probe
// body handling: Content-Length parsing, the 411 path).
std::string http_raw(std::uint16_t port, const std::string& request)
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

TEST(ObsHttpServer, BindsEphemeralPortAndReportsIt)
{
    ObsHttpServer server{{}, nullptr, nullptr};
    server.start();
    EXPECT_TRUE(server.running());
    EXPECT_NE(server.port(), 0);
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(ObsHttpServer, StopIsIdempotentAndRestartable)
{
    ObsHttpServer server{{}, nullptr, nullptr};
    server.start();
    server.stop();
    server.stop();
    server.start();
    EXPECT_TRUE(server.running());
    server.stop();
}

TEST(ObsHttpServer, RoutesBodies)
{
    auto metrics = std::make_shared<MetricsRegistry>();
    metrics->counter("eval.items").add(5);
    auto progress = std::make_shared<ProgressTracker>();
    progress->on_run_start("ga", 10);
    ObsHttpServer server{{}, metrics, progress};

    EXPECT_EQ(server.respond("GET", "/healthz", {}).body, "ok\n");
    const std::string exposition = server.respond("GET", "/metrics", {}).body;
    EXPECT_NE(exposition.find("nautilus_eval_items_total 5"), std::string::npos);
    EXPECT_NE(exposition.find("nautilus_progress_running 1"), std::string::npos);
    const std::string status = server.respond("GET", "/status", {}).body;
    EXPECT_NE(status.find("\"engine\":\"ga\""), std::string::npos);
    EXPECT_NE(status.find("\"running\":true"), std::string::npos);
    EXPECT_NE(server.respond("GET", "/", {}).body.find("/metrics"), std::string::npos);
    EXPECT_EQ(server.respond("GET", "/nope", {}).status, 404);
}

TEST(ObsHttpServer, NullSourcesServeEmptyDefaults)
{
    ObsHttpServer server{{}, nullptr, nullptr};
    // /status always reports the server's own uptime, even with no sources
    // attached; everything else stays at its empty default.
    const std::string status = server.respond("GET", "/status", {}).body;
    EXPECT_EQ(status.rfind("{\"uptime_seconds\":", 0), 0u) << status;
    EXPECT_EQ(status.back(), '\n');
    EXPECT_EQ(server.respond("GET", "/lineage", {}).body, "{}\n");
    // No logger attached: /logs is absent (404 through respond()).
    EXPECT_EQ(server.respond("GET", "/logs", {}).status, 404);
    EXPECT_TRUE(server.respond("GET", "/metrics", {}).body.empty());
}

TEST(ObsHttpServer, LineageEndpointServesCountersAndExposition)
{
    auto lineage = std::make_shared<LineageTracker>();
    const std::vector<GeneOrigin> origins{GeneOrigin::parent_a, GeneOrigin::bias};
    lineage->on_birth(BirthOp::crossover, origins);
    lineage->on_survived();
    ObsHttpServer server{{}, std::make_shared<MetricsRegistry>(), nullptr, lineage};
    server.start();

    const std::string body = http_get(server.port(), "/lineage");
    EXPECT_NE(body.find("Content-Type: application/json"), std::string::npos);
    EXPECT_NE(body.find("\"births\":1"), std::string::npos);
    EXPECT_NE(body.find("\"genes_bias\":1"), std::string::npos);
    EXPECT_NE(body.find("\"survived\":1"), std::string::npos);

    const std::string exposition = http_get(server.port(), "/metrics");
    EXPECT_NE(exposition.find("nautilus_lineage_births 1"), std::string::npos);
    EXPECT_NE(exposition.find("nautilus_lineage_crossover_births 1"),
              std::string::npos);
    EXPECT_NE(exposition.find("nautilus_lineage_genes_bias 1"), std::string::npos);

    EXPECT_NE(http_get(server.port(), "/").find("/lineage"), std::string::npos);
    server.stop();
}

TEST(ObsHttpServer, ServesOverRealSockets)
{
    auto metrics = std::make_shared<MetricsRegistry>();
    metrics->counter("eval.items").add(9);
    auto progress = std::make_shared<ProgressTracker>();
    ObsHttpServer server{{}, metrics, progress};
    server.start();

    const std::string health = http_get(server.port(), "/healthz");
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos);

    const std::string metrics_response = http_get(server.port(), "/metrics");
    EXPECT_NE(metrics_response.find("text/plain; version=0.0.4"), std::string::npos);
    EXPECT_NE(metrics_response.find("nautilus_eval_items_total 9"), std::string::npos);

    const std::string status = http_get(server.port(), "/status");
    EXPECT_NE(status.find("Content-Type: application/json"), std::string::npos);
    EXPECT_NE(status.find("\"runs_started\":0"), std::string::npos);

    // Query strings are ignored; unknown paths 404; non-GET methods 405.
    EXPECT_NE(http_get(server.port(), "/healthz?probe=1").find("200 OK"),
              std::string::npos);
    EXPECT_NE(http_get(server.port(), "/nope").find("404 Not Found"),
              std::string::npos);
    EXPECT_NE(http_get(server.port(), "/metrics", "POST").find("405"),
              std::string::npos);

    EXPECT_GE(server.requests_served(), 6u);
    server.stop();
}

// RFC 9110 method discipline on the read-only endpoints: any non-GET/HEAD
// method gets 405 with an Allow header naming what the resource supports --
// whether or not the request carried a (properly announced) body.
TEST(ObsHttpServer, NonGetMethodsGet405WithAllowHeader)
{
    ObsHttpServer server{{}, std::make_shared<MetricsRegistry>(), nullptr};
    server.start();
    for (const std::string method : {"POST", "PUT", "DELETE", "PATCH"}) {
        const std::string response = http_get(server.port(), "/metrics", method);
        EXPECT_NE(response.find("405 Method Not Allowed"), std::string::npos) << method;
        EXPECT_NE(response.find("Allow: GET, HEAD"), std::string::npos) << method;
    }
    const std::string with_body = http_raw(
        server.port(),
        "POST /status HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi");
    EXPECT_NE(with_body.find("405 Method Not Allowed"), std::string::npos);
    EXPECT_NE(with_body.find("Allow: GET, HEAD"), std::string::npos);
    // GET still works after the refusals.
    EXPECT_NE(http_get(server.port(), "/healthz").find("200 OK"), std::string::npos);
    server.stop();
}

// RFC 9110 section 8.6: a request that carries a body without announcing it
// via Content-Length is refused with 411 rather than the body being guessed
// at or silently dropped.  A bad Content-Length value is a plain 400, and an
// announced body that exceeds the request cap is 413.
TEST(ObsHttpServer, BodyWithoutContentLengthGets411)
{
    ObsHttpServer server{{}, nullptr, nullptr};
    server.start();

    const std::string no_length = http_raw(
        server.port(), "POST /jobs HTTP/1.1\r\nHost: x\r\n\r\n{\"engine\":\"ga\"}");
    EXPECT_NE(no_length.find("411 Length Required"), std::string::npos);

    const std::string bad_length = http_raw(
        server.port(), "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: two\r\n\r\nhi");
    EXPECT_NE(bad_length.find("400 Bad Request"), std::string::npos);

    const std::string huge = http_raw(
        server.port(),
        "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 9999999\r\n\r\nx");
    EXPECT_NE(huge.find("413"), std::string::npos);
    server.stop();
}

// RFC 9110 section 9.3.2: a HEAD response carries the headers the matching
// GET would carry — in particular the GET body's Content-Length — but no
// payload.  (A past bug cleared the body before the header was computed,
// advertising Content-Length: 0 and breaking HEAD-based scrape probes.)
TEST(ObsHttpServer, HeadMatchesGetHeadersWithEmptyBody)
{
    auto metrics = std::make_shared<MetricsRegistry>();
    metrics->counter("eval.items").add(9);
    ObsHttpServer server{{}, metrics, std::make_shared<ProgressTracker>()};
    server.start();

    // /metrics and /status embed wall-clock gauges (elapsed seconds, rates),
    // so two requests made at different instants can legitimately render
    // bodies of different lengths -- and every request gets its own
    // X-Nautilus-Request-Id.  Compare headers with both per-request values
    // masked; Content-Length itself is checked against the body of the same
    // request, which is exact.
    const auto mask_length = [](std::string headers) {
        for (const std::string key : {"Content-Length: ", "X-Nautilus-Request-Id: "}) {
            const std::size_t pos = headers.find(key);
            if (pos == std::string::npos) continue;
            std::size_t end = pos + key.size();
            while (end < headers.size() &&
                   std::isdigit(static_cast<unsigned char>(headers[end])))
                ++end;
            headers.replace(pos + key.size(), end - (pos + key.size()), "N");
        }
        return headers;
    };
    for (const std::string target : {"/healthz", "/metrics", "/status", "/nope"}) {
        const std::string get = http_get(server.port(), target);
        const std::string head = http_get(server.port(), target, "HEAD");

        const std::size_t get_split = get.find("\r\n\r\n");
        const std::size_t head_split = head.find("\r\n\r\n");
        ASSERT_NE(get_split, std::string::npos) << target;
        ASSERT_NE(head_split, std::string::npos) << target;

        // Identical status line and headers (Content-Length present, its
        // digits masked against clock skew between the two requests) ...
        EXPECT_EQ(mask_length(head.substr(0, head_split)),
                  mask_length(get.substr(0, get_split)))
            << target;
        EXPECT_NE(head.find("Content-Length: "), std::string::npos) << target;
        EXPECT_EQ(head.find("Content-Length: 0\r\n"), std::string::npos) << target;
        // ... and the advertised length names the GET body, which HEAD omits.
        const std::string get_body = get.substr(get_split + 4);
        EXPECT_NE(get.find("Content-Length: " + std::to_string(get_body.size())),
                  std::string::npos)
            << target;
        EXPECT_TRUE(head.substr(head_split + 4).empty()) << target;
        EXPECT_FALSE(get_body.empty()) << target;
    }
    server.stop();
}

// The TSan target: scrape /metrics and /status over live sockets while a GA
// run evaluates with 4 workers, all three obs surfaces (tracer off, metrics,
// progress) attached.  Snapshot paths must be data-race free against the
// engine thread and the evaluator pool.
TEST(ObsHttpServerConcurrency, ScrapingDuringParallelEvaluationIsSafe)
{
    ParameterSpace space;
    for (int i = 0; i < 4; ++i)
        space.add("p" + std::to_string(i), ParamDomain::int_range(0, 7));

    GaConfig cfg;
    cfg.generations = 30;
    cfg.population_size = 16;
    cfg.seed = 2015;
    cfg.eval_workers = 4;
    cfg.obs.metrics = std::make_shared<MetricsRegistry>();
    cfg.obs.progress = std::make_shared<ProgressTracker>();
    cfg.obs.lineage = std::make_shared<LineageTracker>();

    ObsHttpServer server{{}, cfg.obs.metrics, cfg.obs.progress, cfg.obs.lineage};
    server.start();

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> scrapes{0};
    std::thread scraper{[&] {
        while (!done.load(std::memory_order_acquire)) {
            const std::string m = http_get(server.port(), "/metrics");
            const std::string s = http_get(server.port(), "/status");
            const std::string l = http_get(server.port(), "/lineage");
            if (!m.empty() && !s.empty() && !l.empty())
                scrapes.fetch_add(1, std::memory_order_relaxed);
        }
    }};

    const GaEngine engine{space, cfg, Direction::maximize,
                          [](const Genome& g) {
                              double v = 0.0;
                              for (std::size_t i = 0; i < g.size(); ++i) v += g.gene(i);
                              return Evaluation{true, v};
                          },
                          HintSet::none(space)};
    const RunResult result = engine.run();

    done.store(true, std::memory_order_release);
    scraper.join();
    server.stop();

    EXPECT_GT(scrapes.load(), 0u);
    // The final scrape-visible state agrees with the run result.
    const ProgressSnapshot snap = cfg.obs.progress->snapshot();
    EXPECT_EQ(snap.distinct_evals, result.distinct_evals);
    EXPECT_EQ(snap.eval_calls, result.total_eval_calls);
    EXPECT_EQ(snap.runs_completed, 1u);
    EXPECT_FALSE(snap.running);
    const LineageCounters lineage = cfg.obs.lineage->counters();
    EXPECT_EQ(lineage.runs, 1u);
    EXPECT_GE(lineage.births, cfg.population_size);
    EXPECT_TRUE(lineage.have_last);
    EXPECT_EQ(lineage.last.births, lineage.births);
}

}  // namespace
