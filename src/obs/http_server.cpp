#include "obs/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "obs/export.hpp"
#include "obs/format.hpp"

namespace nautilus::obs {

namespace {

const char* reason_phrase(int status)
{
    switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 411: return "Length Required";
    case 413: return "Content Too Large";
    case 503: return "Service Unavailable";
    default: return "Response";
    }
}

// `head_only` suppresses the payload but not the headers: a HEAD response
// must advertise the Content-Length the matching GET would carry
// (RFC 9110 section 9.3.2), so the header is always computed from the real
// body size.  `request_id` (nonzero) is echoed as X-Nautilus-Request-Id so
// a client can join its request against the server's access log.
std::string render_response(const HttpResponse& r, bool head_only = false,
                            std::uint64_t request_id = 0)
{
    std::string out =
        "HTTP/1.1 " + std::to_string(r.status) + ' ' + reason_phrase(r.status) + "\r\n";
    out += "Content-Type: ";
    out += r.content_type;
    out += "\r\nContent-Length: " + std::to_string(r.body.size());
    if (!r.allow.empty()) out += "\r\nAllow: " + r.allow;
    if (!r.retry_after.empty()) out += "\r\nRetry-After: " + r.retry_after;
    if (request_id != 0)
        out += "\r\nX-Nautilus-Request-Id: " + std::to_string(request_id);
    out += "\r\nConnection: close\r\n\r\n";
    if (!head_only) out += r.body;
    return out;
}

// Parse the `n=K` parameter of a /logs query string.  Returns false on a
// malformed count; leaves `n` untouched when the parameter is absent.
bool parse_tail_count(std::string_view query, std::size_t& n)
{
    for (std::size_t pos = 0; pos <= query.size();) {
        const std::size_t amp = std::min(query.find('&', pos), query.size());
        const std::string_view param = query.substr(pos, amp - pos);
        pos = amp + 1;
        if (param.substr(0, 2) != "n=") continue;
        const std::string_view value = param.substr(2);
        const char* end = value.data() + value.size();
        if (value.empty() || value.size() > 9 ||
            std::from_chars(value.data(), end, n).ptr != end)
            return false;
    }
    return true;
}

// The value of the head's first `name:` line (name matched without regard
// to case, value trimmed of blanks), or nullopt when there is none.
std::optional<std::string_view> header_value(std::string_view head, std::string_view name)
{
    const auto lower = [](char c) {
        return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
    };
    for (std::size_t pos = 0; pos < head.size();) {
        const std::size_t eol = std::min(head.find("\r\n", pos), head.size());
        std::string_view line = head.substr(pos, eol - pos);
        pos = eol + 2;
        if (line.size() <= name.size() + 1 || line[name.size()] != ':' ||
            !std::equal(name.begin(), name.end(), line.begin(),
                        [&](char a, char b) { return lower(a) == lower(b); }))
            continue;
        line.remove_prefix(name.size() + 1);
        const std::size_t first = line.find_first_not_of(" \t");
        if (first == std::string_view::npos) return line.substr(line.size());
        return line.substr(first, line.find_last_not_of(" \t") + 1 - first);
    }
    return std::nullopt;
}

// Reentrant errno rendering.  glibc with _GNU_SOURCE gives the char*-
// returning strerror_r; POSIX gives the int-returning one.  Overload
// dispatch on the actual return type picks the right adapter, so this
// compiles against either without feature-test-macro gymnastics.
const char* strerror_adapt(int rc, const char* buf)
{
    return rc == 0 ? buf : "unknown error";
}
const char* strerror_adapt(const char* msg, const char* /*buf*/)
{
    return msg != nullptr ? msg : "unknown error";
}

std::string errno_message(int err)
{
    char buf[256] = "unknown error";
    return strerror_adapt(::strerror_r(err, buf, sizeof buf), buf);
}

void send_all(int fd, std::string_view data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            return;  // client went away; nothing useful to do
        }
        sent += static_cast<std::size_t>(n);
    }
}

}  // namespace

HttpFrame frame_request(std::string_view bytes, bool at_end)
{
    HttpFrame frame;
    const auto reject = [&frame](int status, std::string_view message) {
        frame.kind = HttpFrame::Kind::reject;
        frame.status = status;
        frame.message = message;
        return frame;
    };

    const std::size_t head_end = bytes.find("\r\n\r\n");
    if (head_end == std::string_view::npos || head_end + 4 > kMaxRequestBytes) {
        if (bytes.size() > kMaxRequestBytes) return reject(413, "request head too large\n");
        if (at_end) frame.kind = HttpFrame::Kind::drop;
        return frame;
    }
    const std::string_view head = bytes.substr(0, head_end);

    // "METHOD SP request-target SP HTTP-version"
    const std::string_view line = head.substr(0, head.find("\r\n"));
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? std::string_view::npos : line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos) return reject(400, "bad request\n");
    frame.method = line.substr(0, sp1);
    frame.target = line.substr(sp1 + 1, sp2 - sp1 - 1);

    std::string_view rest = bytes.substr(head_end + 4);
    const auto length = header_value(head, "Content-Length");
    if (!length) {
        // A body arrived but no Content-Length announced it (RFC 9110
        // section 8.6): refuse rather than guess where the spec ends.
        if (!rest.empty())
            return reject(411, "requests with a body must send Content-Length\n");
        frame.kind = HttpFrame::Kind::request;
        frame.body = rest;
        return frame;
    }
    if (length->empty()) return reject(400, "bad Content-Length\n");
    std::size_t declared = 0;
    for (const char c : *length) {
        if (c < '0' || c > '9') return reject(400, "bad Content-Length\n");
        // Saturates just past the cap, so a long digit string cannot wrap.
        if (declared <= kMaxRequestBytes)
            declared = declared * 10 + static_cast<std::size_t>(c - '0');
    }
    if (declared > kMaxRequestBytes - (head_end + 4))
        return reject(413, "request body too large\n");
    if (rest.size() < declared) {
        if (at_end) return reject(400, "request body shorter than Content-Length\n");
        return frame;
    }
    frame.kind = HttpFrame::Kind::request;
    frame.body = rest.substr(0, declared);
    return frame;
}

ObsHttpServer::ObsHttpServer(HttpServerConfig config,
                             std::shared_ptr<MetricsRegistry> metrics,
                             std::shared_ptr<ProgressTracker> progress,
                             std::shared_ptr<LineageTracker> lineage)
    : config_(std::move(config)),
      metrics_(std::move(metrics)),
      progress_(std::move(progress)),
      lineage_(std::move(lineage))
{
}

ObsHttpServer::~ObsHttpServer()
{
    stop();
}

void ObsHttpServer::start()
{
    if (running_.load(std::memory_order_acquire)) return;

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("ObsHttpServer: socket() failed");

    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("ObsHttpServer: bad bind address '" +
                                 config_.bind_address + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        const int err = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("ObsHttpServer: cannot bind " + config_.bind_address +
                                 ":" + std::to_string(config_.port) + " (" +
                                 errno_message(err) + ")");
    }
    if (::listen(listen_fd_, 16) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("ObsHttpServer: listen() failed");
    }

    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
        port_ = ntohs(bound.sin_port);

    stopping_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    started_ = std::chrono::steady_clock::now();
    thread_ = std::thread{[this] { accept_loop(); }};
}

void ObsHttpServer::stop()
{
    if (!running_.exchange(false, std::memory_order_acq_rel)) {
        if (thread_.joinable()) thread_.join();
        return;
    }
    stopping_.store(true, std::memory_order_release);
    // Unblock accept(): shutdown makes it return on Linux; close follows
    // after the join so the fd cannot be reused while the thread runs.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
}

void ObsHttpServer::accept_loop()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            if (stopping_.load(std::memory_order_acquire)) return;
            if (errno == ECONNABORTED) continue;
            return;  // listening socket is gone; nothing left to serve
        }
        handle_connection(fd);
        ::close(fd);
    }
}

double ObsHttpServer::uptime_seconds() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - started_)
        .count();
}

HttpResponse ObsHttpServer::respond(std::string_view method, std::string_view target,
                                    std::string_view body, std::uint64_t request_id) const
{
    std::string_view path = target;
    std::string_view query;
    if (const std::size_t q = target.find('?'); q != std::string_view::npos) {
        path = target.substr(0, q);
        query = target.substr(q + 1);
    }

    // The job plane owns everything under /jobs, including its own method
    // routing (POST/GET/DELETE with per-path Allow sets).
    if (jobs_ != nullptr &&
        (path == "/jobs" || path.substr(0, 6) == "/jobs/"))
        return jobs_->handle_jobs(method, path, body, request_id);

    // Everything else is the read-only observability plane: GET/HEAD only,
    // and a 405 must name the methods that would have worked.
    constexpr const char* plain = "text/plain; charset=utf-8";
    constexpr const char* json_type = "application/json";
    if (method != "GET" && method != "HEAD")
        return {405, plain, "method not allowed (this endpoint is read-only)\n", "GET, HEAD",
                {}};
    const auto ok = [](const char* type, std::string content) {
        return HttpResponse{200, type, std::move(content), {}, {}};
    };

    if (path == "/metrics") {
        // Server self-state is refreshed into the registry at scrape time,
        // so it appears in the exposition without a background updater.
        std::string exposition;
        if (metrics_ != nullptr) {
            metrics_->gauge("http.requests_served")
                .set(static_cast<double>(requests_served()));
            metrics_->gauge("process.uptime_seconds").set(uptime_seconds());
            exposition = to_prometheus(metrics_->snapshot());
        }
        if (progress_ != nullptr) append_progress_exposition(exposition, progress_->snapshot());
        if (lineage_ != nullptr) append_lineage_exposition(exposition, lineage_->counters());
        return ok("text/plain; version=0.0.4; charset=utf-8", std::move(exposition));
    }
    if (path == "/status") {
        std::string status =
            progress_ != nullptr ? to_json(progress_->snapshot()) : std::string{"{}"};
        // Splice uptime into the snapshot object, keeping it one flat map.
        std::string uptime;
        if (status.size() > 2) uptime += ',';
        uptime += "\"uptime_seconds\":";
        append_json_double(uptime, uptime_seconds());
        status.insert(status.size() - 1, uptime);
        return ok(json_type, status + "\n");
    }
    if (path == "/lineage")
        return ok(json_type, lineage_ != nullptr ? to_json(lineage_->counters()) + "\n" : "{}\n");
    if (path == "/logs" && logger_ != nullptr) {
        std::size_t n = 100;
        if (!parse_tail_count(query, n))
            return {400, plain, "bad query: expected n=<decimal count>\n", {}, {}};
        return ok(json_type, logger_->tail_json(n) + "\n");
    }
    if (path == "/healthz") return ok(plain, "ok\n");
    if (path == "/") {
        std::string index =
            "nautilus observability endpoint\n"
            "  /metrics  Prometheus text exposition\n"
            "  /status   JSON run progress\n"
            "  /lineage  JSON lineage counters\n"
            "  /healthz  liveness probe\n";
        if (logger_ != nullptr)
            index += "  /logs     JSON tail of the server log (?n=K)\n";
        if (jobs_ != nullptr)
            index += "  /jobs     search jobs (POST spec, GET list, GET/DELETE /jobs/<id>)\n";
        return ok(plain, std::move(index));
    }
    return {404, plain, "not found\n", {}, {}};
}

void ObsHttpServer::record_request(std::string_view method, std::string_view target,
                                   int status, std::size_t bytes, double seconds,
                                   std::uint64_t request_id)
{
    if (metrics_ != nullptr) {
        metrics_->counter("http.requests").add();
        const char* klass = status >= 500   ? "http.requests.5xx"
                            : status >= 400 ? "http.requests.4xx"
                            : status >= 300 ? "http.requests.3xx"
                                            : "http.requests.2xx";
        metrics_->counter(klass).add();
        metrics_->histogram("http.request_seconds", Histogram::seconds_buckets())
            .observe(seconds);
        metrics_->counter("http.response_bytes").add(bytes);
    }
    if (logger_ != nullptr && logger_->enabled(LogLevel::info)) {
        TraceEvent ev{"access"};
        ev.add("request_id", FieldValue{request_id})
            .add("method",
                 FieldValue{std::string{method.empty() ? std::string_view{"-"} : method}})
            .add("path",
                 FieldValue{std::string{target.empty() ? std::string_view{"-"} : target}})
            .add("status", status)
            .add("bytes", bytes)
            .add("micros", FieldValue{static_cast<std::uint64_t>(seconds * 1e6)});
        logger_->log(LogLevel::info, std::move(ev));
    }
}

void ObsHttpServer::handle_connection(int fd)
{
    const auto arrived = std::chrono::steady_clock::now();
    const std::uint64_t request_id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::string_view method;  // empty until the request line parses
    std::string_view target;

    // Every answered request -- including protocol errors -- flows through
    // one epilogue: render with the request id, send, count, and feed the
    // self-metrics and access log.
    const auto finish = [&](const HttpResponse& r, bool head_only = false) {
        const std::string wire = render_response(r, head_only, request_id);
        send_all(fd, wire);
        requests_.fetch_add(1, std::memory_order_relaxed);
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - arrived)
                .count();
        record_request(method, target, r.status, wire.size(), seconds, request_id);
    };
    const auto error = [&](int status, std::string_view message) {
        finish({status, "text/plain; charset=utf-8", std::string{message}, {}, {}});
    };

    timeval timeout{};
    timeout.tv_sec = 2;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);

    std::string request;
    HttpFrame frame = frame_request(request, false);
    char buf[1024];
    while (frame.kind == HttpFrame::Kind::incomplete) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n > 0) request.append(buf, static_cast<std::size_t>(n));
        frame = frame_request(request, n <= 0);
    }
    method = frame.method;
    target = frame.target;
    if (frame.kind == HttpFrame::Kind::drop) return;  // nothing to answer
    if (frame.kind == HttpFrame::Kind::reject) {
        error(frame.status, frame.message);
        return;
    }
    finish(respond(method, target, frame.body, request_id), method == "HEAD");
}
}  // namespace nautilus::obs
