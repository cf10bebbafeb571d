#pragma once
// Minimal blocking HTTP/1.1 client for the loopback job server: one request
// per connection, matching the server's Connection: close.

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

struct HttpReply {
    int status = 0;    // 0 when the exchange failed before a status line
    std::string body;
    std::string error;  // set when status == 0
};

// Sends `method target` with `body` to 127.0.0.1:port and reads the reply to
// EOF.  Never throws; socket errors come back as status 0.
HttpReply http_request(std::uint16_t port, std::string_view method, std::string_view target,
                       std::string_view body = {});

}  // namespace perfbench
