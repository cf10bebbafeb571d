#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

// Closes the socket on every path out of http_request.
struct Fd {
    int fd = -1;
    ~Fd()
    {
        if (fd >= 0) ::close(fd);
    }
};

HttpReply failure(std::string what)
{
    HttpReply r;
    r.error = std::move(what) + ": " + std::strerror(errno);
    return r;
}

}  // namespace

HttpReply http_request(std::uint16_t port, std::string_view method, std::string_view target,
                       std::string_view body)
{
    Fd sock{::socket(AF_INET, SOCK_STREAM, 0)};
    if (sock.fd < 0) return failure("socket");
    timeval timeout{30, 0};
    ::setsockopt(sock.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(sock.fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(sock.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
        return failure("connect");

    std::string request;
    request.reserve(160 + body.size());
    request.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
    request += "Host: 127.0.0.1\r\nConnection: close\r\n";
    if (!body.empty() || method == "POST") {
        request += "Content-Type: application/json\r\nContent-Length: ";
        request += std::to_string(body.size()) + "\r\n";
    }
    request += "\r\n";
    request.append(body);
    for (std::size_t sent = 0; sent < request.size();) {
        const ssize_t n = ::send(sock.fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) return failure("send");
        sent += static_cast<std::size_t>(n);
    }

    std::string raw;
    char buf[8192];
    for (;;) {
        const ssize_t n = ::recv(sock.fd, buf, sizeof buf, 0);
        if (n < 0) return failure("recv");
        if (n == 0) break;
        raw.append(buf, static_cast<std::size_t>(n));
    }

    HttpReply reply;
    const std::size_t head_end = raw.find("\r\n\r\n");
    if (raw.compare(0, 9, "HTTP/1.1 ") != 0 || head_end == std::string::npos) {
        reply.error = "malformed response";
        return reply;
    }
    reply.status = std::atoi(raw.c_str() + 9);
    reply.body = raw.substr(head_end + 4);
    return reply;
}

}  // namespace perfbench
