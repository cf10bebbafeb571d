// Request framing (obs::frame_request) on plain bytes: the head/body split,
// the request line, the Content-Length grammar and the 400/411/413 rules,
// plus a seeded mutation fuzz over recorded client requests.

#include "obs/http_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

using namespace nautilus::obs;

namespace {

using Kind = HttpFrame::Kind;

std::string post(std::string_view length, std::string_view body)
{
    std::string out = "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: ";
    out += length;
    out += "\r\n\r\n";
    out += body;
    return out;
}

// Requests as the CI job-server gate's clients send them: Python urllib's
// POST and GET, curl's DELETE, GET and POST (recorded off a loopback socket).
const std::string k_spec =
    R"({"engine":"ga","ip":"router","metric":"freq_mhz","guidance":"strong",)"
    R"("generations":10,"seed":2015,"workers":4})"
    "\n";
const std::vector<std::string> k_recorded = {
    "POST /jobs HTTP/1.1\r\nAccept-Encoding: identity\r\nContent-Type: "
    "application/x-www-form-urlencoded\r\nContent-Length: 111\r\nHost: localhost:9141\r\n"
    "User-Agent: Python-urllib/3.11\r\nConnection: close\r\n\r\n" + k_spec,
    "GET /jobs/1 HTTP/1.1\r\nAccept-Encoding: identity\r\nHost: localhost:9141\r\n"
    "User-Agent: Python-urllib/3.11\r\nConnection: close\r\n\r\n",
    "DELETE /jobs/1 HTTP/1.1\r\nHost: localhost:9141\r\nUser-Agent: curl/7.88.1\r\n"
    "Accept: */*\r\n\r\n",
    "GET /logs?n=50 HTTP/1.1\r\nHost: localhost:9141\r\nUser-Agent: curl/7.88.1\r\n"
    "Accept: */*\r\n\r\n",
    "POST /jobs HTTP/1.1\r\nHost: localhost:9141\r\nUser-Agent: curl/7.88.1\r\n"
    "Accept: */*\r\nContent-Length: 111\r\nContent-Type: "
    "application/x-www-form-urlencoded\r\n\r\n" + k_spec,
};

// The first Content-Length line of a head, found the way a reader of the
// RFC would: case-insensitive name, optional whitespace around the value.
std::optional<std::string_view> declared_length(std::string_view head)
{
    static constexpr std::string_view name = "content-length:";
    std::size_t pos = 0;
    while (pos <= head.size()) {
        std::size_t eol = head.find("\r\n", pos);
        if (eol == std::string_view::npos) eol = head.size();
        std::string_view line = head.substr(pos, eol - pos);
        bool match = line.size() > name.size();
        for (std::size_t i = 0; match && i < name.size(); ++i)
            match = std::tolower(static_cast<unsigned char>(line[i])) == name[i];
        if (match) {
            line.remove_prefix(name.size());
            while (!line.empty() && (line.front() == ' ' || line.front() == '\t'))
                line.remove_prefix(1);
            while (!line.empty() && (line.back() == ' ' || line.back() == '\t'))
                line.remove_suffix(1);
            return line;
        }
        pos = eol + 2;
    }
    return std::nullopt;
}

// The framing contract on one input: a request whose body is exactly its
// declared length (and inside the input and the size cap), or a 4xx, or --
// only for an input whose head never ended -- no answer.  Returns what was
// violated, or "" when nothing was.
std::string frame_violation(const std::string& bytes)
{
    const std::size_t head_end = bytes.find("\r\n\r\n");
    for (const bool at_end : {false, true}) {
        const HttpFrame f = frame_request(bytes, at_end);
        const std::string when = at_end ? " at end" : " while reading";
        switch (f.kind) {
        case Kind::request: {
            if (head_end == std::string::npos) return "request without a head" + when;
            if (f.body.data() != bytes.data() + head_end + 4 ||
                head_end + 4 + f.body.size() > std::min(bytes.size(), kMaxRequestBytes))
                return "body outside the input or the cap" + when;
            const auto length = declared_length(std::string_view{bytes}.substr(0, head_end));
            if (!length) {
                if (bytes.size() != head_end + 4) return "unannounced body accepted" + when;
                break;
            }
            if (length->empty() ||
                length->find_first_not_of("0123456789") != std::string_view::npos)
                return "non-digit Content-Length accepted" + when;
            if (std::stoull(std::string{*length}) != f.body.size())
                return "body length differs from Content-Length" + when;
            break;
        }
        case Kind::reject:
            if (f.status != 400 && f.status != 411 && f.status != 413)
                return "rejected with " + std::to_string(f.status) + when;
            if (f.message.empty()) return "reject without a message" + when;
            break;
        case Kind::drop:
            if (!at_end || head_end != std::string::npos || bytes.size() > kMaxRequestBytes)
                return "dropped a request that could be answered" + when;
            break;
        case Kind::incomplete:
            if (at_end || bytes.size() > kMaxRequestBytes) return "incomplete" + when;
            break;
        }
    }
    return {};
}

}  // namespace

TEST(HttpFrame, SplitsRecordedRequests)
{
    for (const std::string& bytes : k_recorded) {
        const HttpFrame f = frame_request(bytes, false);
        ASSERT_EQ(f.kind, Kind::request) << bytes;
        EXPECT_EQ(f.body, bytes[0] == 'P' ? k_spec : "");
    }
    const HttpFrame f = frame_request(k_recorded[0], false);
    EXPECT_EQ(f.method, "POST");
    EXPECT_EQ(f.target, "/jobs");
    EXPECT_EQ(frame_request(k_recorded[3], true).target, "/logs?n=50");
}

TEST(HttpFrame, WaitsForTheDeclaredBody)
{
    EXPECT_EQ(frame_request("GET / HTTP/1.1\r\nHost: x", false).kind, Kind::incomplete);
    EXPECT_EQ(frame_request("GET / HTTP/1.1\r\nHost: x", true).kind, Kind::drop);
    EXPECT_EQ(frame_request(post("5", "ab"), false).kind, Kind::incomplete);
    const std::string short_body = post("5", "ab");  // frames view their input
    const HttpFrame shorter = frame_request(short_body, true);
    EXPECT_EQ(shorter.kind, Kind::reject);
    EXPECT_EQ(shorter.status, 400);
    EXPECT_EQ(shorter.method, "POST");  // known once the request line parsed
    // Bytes past the declared length are not part of the body.
    const std::string long_body = post("2", "abcdef");
    const HttpFrame longer = frame_request(long_body, false);
    ASSERT_EQ(longer.kind, Kind::request);
    EXPECT_EQ(longer.body, "ab");
    EXPECT_EQ(frame_request(post(" 3\t", "abc"), false).body, "abc");
}

TEST(HttpFrame, ContentLengthMustBeDigits)
{
    for (const char* bad : {"-1", "+64", "0x10", "1e3", "5 5", "two", ""}) {
        const HttpFrame f = frame_request(post(bad, "x"), true);
        EXPECT_EQ(f.kind, Kind::reject) << bad;
        EXPECT_EQ(f.status, 400) << bad;
        EXPECT_EQ(f.message, "bad Content-Length\n") << bad;
    }
    // Digits, but past the cap: 413 without wrapping around.
    for (const char* huge : {"65536", "9999999", "18446744073709551615",
                             "18446744073709551616", "99999999999999999999999999"}) {
        const HttpFrame f = frame_request(post(huge, "x"), false);
        EXPECT_EQ(f.kind, Kind::reject) << huge;
        EXPECT_EQ(f.status, 413) << huge;
    }
    // The cap covers the head too: a body that fits alone can still be 413.
    const std::size_t room = kMaxRequestBytes - post("12345", "").size();
    EXPECT_EQ(frame_request(post(std::to_string(room), ""), false).kind, Kind::incomplete);
    EXPECT_EQ(frame_request(post(std::to_string(room + 1), ""), false).status, 413);
}

TEST(HttpFrame, BodyWithoutLengthAndOversizeHeads)
{
    const HttpFrame no_length = frame_request("POST /jobs HTTP/1.1\r\n\r\n{}", false);
    EXPECT_EQ(no_length.kind, Kind::reject);
    EXPECT_EQ(no_length.status, 411);
    const HttpFrame bad_line = frame_request("GARBAGE\r\n\r\n", false);
    EXPECT_EQ(bad_line.kind, Kind::reject);
    EXPECT_EQ(bad_line.status, 400);
    const std::string endless = "GET / HTTP/1.1\r\nX: " + std::string(kMaxRequestBytes, 'a');
    EXPECT_EQ(frame_request(endless, false).status, 413);
    EXPECT_EQ(frame_request(endless + "\r\n\r\n", false).status, 413);
}

// ~20k seeded mutants of the recorded requests and the malformed lengths
// above: byte flips, insertions, deletions, duplicated spans, truncation
// and spliced HTTP tokens.  Each must frame to a request whose body is its
// declared length, or to a 4xx (ASan/UBSan run this too).
TEST(HttpFrameFuzz, MutantsFrameToABoundedRequestOrA4xx)
{
    std::vector<std::string> seeds = k_recorded;
    for (const char* length : {"-1", "+64", "18446744073709551615", "65536", "0", "111"})
        seeds.push_back(post(length, k_spec));
    static const char* const tokens[] = {
        "\r\n", "\r\n\r\n", "Content-Length: ", "content-length:", "-1", "+64",
        "18446744073709551615", "65535", "0", " ", "\t", ":", "POST /jobs HTTP/1.1",
    };

    std::mt19937_64 rng{20};
    const auto below = [&rng](std::size_t n) {
        return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
    };
    for (const std::string& seed : seeds) EXPECT_EQ(frame_violation(seed), "") << seed;
    for (int i = 0; i < 20000; ++i) {
        std::string bytes = seeds[below(seeds.size())];
        const std::size_t edits = 1 + below(4);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t at = below(bytes.size() + 1);
            switch (below(6)) {
            case 0:
                if (at < bytes.size()) bytes[at] = static_cast<char>(rng());
                break;
            case 1: bytes.insert(at, 1, static_cast<char>(rng())); break;
            case 2: bytes.erase(at, 1 + below(8)); break;
            case 3: bytes.insert(at, bytes.substr(below(bytes.size()), 1 + below(64))); break;
            case 4: bytes.resize(at); break;
            default: bytes.insert(at, tokens[below(std::size(tokens))]); break;
            }
        }
        ASSERT_EQ(frame_violation(bytes), "") << testing::PrintToString(bytes);
    }
}
