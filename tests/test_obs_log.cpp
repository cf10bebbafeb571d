// Structured service log tests: level gating, the seqlock ring behind
// /logs (ordering, wrap, torn-read safety under concurrent writers), the
// file sink, and the golden guarantee that access-log records round-trip
// through the exact JSONL parser the trace tooling uses.

#include "obs/log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

using namespace nautilus::obs;

namespace {

std::string fresh_dir(const std::string& name)
{
    const std::string dir = ::testing::TempDir() + "nautilus_log_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(ObsLog, LevelNamesRoundTrip)
{
    for (const LogLevel level :
         {LogLevel::debug, LogLevel::info, LogLevel::warn, LogLevel::error})
        EXPECT_EQ(log_level_from_name(log_level_name(level)), level);
    EXPECT_FALSE(log_level_from_name("verbose").has_value());
    EXPECT_FALSE(log_level_from_name("INFO").has_value());
    EXPECT_FALSE(log_level_from_name("").has_value());
}

TEST(ObsLog, LevelFilteringDiscardsBelowThreshold)
{
    LogConfig cfg;
    cfg.level = LogLevel::warn;
    Logger logger{cfg};
    EXPECT_FALSE(logger.enabled(LogLevel::debug));
    EXPECT_FALSE(logger.enabled(LogLevel::info));
    EXPECT_TRUE(logger.enabled(LogLevel::warn));
    EXPECT_TRUE(logger.enabled(LogLevel::error));

    logger.log(LogLevel::debug, TraceEvent{"noise"});
    logger.log(LogLevel::info, TraceEvent{"noise"});
    EXPECT_EQ(logger.records_logged(), 0u);
    logger.log(LogLevel::warn, TraceEvent{"signal"});
    logger.log(LogLevel::error, TraceEvent{"signal"});
    EXPECT_EQ(logger.records_logged(), 2u);
    EXPECT_EQ(logger.records_dropped(), 0u);
}

TEST(ObsLog, TailServesMostRecentRecordsInEmissionOrderAcrossWrap)
{
    LogConfig cfg;
    cfg.ring_capacity = 8;  // force several wraps
    Logger logger{cfg};
    for (std::uint64_t i = 0; i < 30; ++i) {
        TraceEvent ev{"tick"};
        ev.add("n", FieldValue{i});
        logger.log(LogLevel::info, std::move(ev));
    }

    const std::string tail = logger.tail_json(5);
    EXPECT_NE(tail.find("\"logged\":30"), std::string::npos) << tail;
    EXPECT_NE(tail.find("\"dropped\":0"), std::string::npos);
    // Exactly the last five survive, in emission order.
    EXPECT_EQ(tail.find("\"n\":24"), std::string::npos);
    std::size_t prev = 0;
    for (std::uint64_t i = 25; i < 30; ++i) {
        const auto pos = tail.find("\"n\":" + std::to_string(i));
        ASSERT_NE(pos, std::string::npos) << tail;
        EXPECT_GT(pos, prev);
        prev = pos;
    }
}

TEST(ObsLog, TailLargerThanHistoryReturnsEverything)
{
    Logger logger{LogConfig{}};
    logger.log(LogLevel::info, TraceEvent{"only"});
    const std::string tail = logger.tail_json(100);
    EXPECT_NE(tail.find("\"type\":\"only\""), std::string::npos);
    EXPECT_NE(tail.find("\"logged\":1"), std::string::npos);
}

// The golden round-trip: a record with the exact shape the HTTP server's
// access log emits parses back through parse_jsonl_line -- the same parser
// the trace reader (obs/trace_runs.hpp) is built on -- with every field
// intact and "level" as the first field.
TEST(ObsLog, AccessRecordRoundTripsThroughTraceParser)
{
    const std::string dir = fresh_dir("roundtrip");
    LogConfig cfg;
    cfg.path = dir + "/server.log.jsonl";
    Logger logger{cfg};

    TraceEvent access{"access"};
    access.add("request_id", FieldValue{std::uint64_t{42}});
    access.add("method", FieldValue{std::string{"POST"}});
    access.add("path", FieldValue{std::string{"/jobs"}});
    access.add("status", 201);
    access.add("bytes", std::size_t{137});
    access.add("micros", FieldValue{std::uint64_t{8421}});
    logger.log(LogLevel::info, std::move(access));

    std::ifstream in{cfg.path};
    ASSERT_TRUE(in.good());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    const auto ev = parse_jsonl_line(line);
    ASSERT_TRUE(ev.has_value()) << line;
    EXPECT_EQ(ev->type, "access");
    ASSERT_FALSE(ev->fields.empty());
    EXPECT_EQ(ev->fields.front().first, "level");
    EXPECT_EQ(ev->string("level").value_or(""), "info");
    EXPECT_EQ(ev->unsigned_int("request_id").value_or(0), 42u);
    EXPECT_EQ(ev->string("method").value_or(""), "POST");
    EXPECT_EQ(ev->string("path").value_or(""), "/jobs");
    EXPECT_EQ(ev->unsigned_int("status").value_or(0), 201u);
    EXPECT_EQ(ev->unsigned_int("bytes").value_or(0), 137u);
    EXPECT_EQ(ev->unsigned_int("micros").value_or(0), 8421u);
    // The serialized line and the ring's copy are byte-identical.
    EXPECT_NE(logger.tail_json(1).find(line), std::string::npos);
}

TEST(ObsLog, OversizedRecordsDropFromRingButReachFile)
{
    const std::string dir = fresh_dir("oversized");
    LogConfig cfg;
    cfg.path = dir + "/server.log.jsonl";
    Logger logger{cfg};

    TraceEvent big{"blob"};
    big.add("payload", FieldValue{std::string(2000, 'x')});
    logger.log(LogLevel::info, std::move(big));
    logger.log(LogLevel::info, TraceEvent{"small"});

    EXPECT_EQ(logger.records_logged(), 2u);
    EXPECT_EQ(logger.records_dropped(), 1u);
    const std::string tail = logger.tail_json(10);
    EXPECT_EQ(tail.find("\"type\":\"blob\""), std::string::npos);
    EXPECT_NE(tail.find("\"type\":\"small\""), std::string::npos);
    EXPECT_NE(tail.find("\"dropped\":1"), std::string::npos);

    // The file sink is not bounded by the slot size.
    std::ifstream in{cfg.path};
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("\"type\":\"blob\""), std::string::npos);
    EXPECT_TRUE(parse_jsonl_line(line).has_value());
}

TEST(ObsLog, UnopenablePathThrows)
{
    LogConfig cfg;
    cfg.path = fresh_dir("unopenable") + "/no/such/dir/log.jsonl";
    EXPECT_THROW(Logger{cfg}, std::runtime_error);
}

// TSan target (matches the CI '*Concurren*' filter): four writer threads
// racing one tail scraper over a small ring.  Correctness bar: no torn
// records ever surface (every tail entry is a parseable JSON object) and
// the final count equals what the writers emitted.
TEST(ObsLogConcurrency, ManyWritersOneScraperNeverSurfaceTornRecords)
{
    LogConfig cfg;
    cfg.ring_capacity = 16;  // small ring maximizes slot reuse contention
    Logger logger{cfg};

    constexpr int kWriters = 4;
    constexpr std::uint64_t kPerWriter = 400;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> torn{0};
    std::thread scraper{[&] {
        while (!stop.load(std::memory_order_acquire)) {
            const std::string tail = logger.tail_json(16);
            // Every surfaced record must have survived seqlock validation:
            // count object opens inside "records":[...] against closes
            // (one extra close belongs to the wrapper object itself); any
            // other imbalance means a torn copy leaked through.
            const auto records = tail.find("\"records\":[");
            std::uint64_t opens = 0;
            std::uint64_t closes = 0;
            for (std::size_t i = records; i < tail.size(); ++i) {
                if (tail[i] == '{') ++opens;
                if (tail[i] == '}') ++closes;
            }
            if (opens + 1 != closes) torn.fetch_add(1, std::memory_order_relaxed);
        }
    }};

    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&, w] {
            for (std::uint64_t i = 0; i < kPerWriter; ++i) {
                TraceEvent ev{"tick"};
                ev.add("writer", w);
                ev.add("n", FieldValue{i});
                logger.log(LogLevel::info, std::move(ev));
            }
        });
    for (std::thread& t : writers) t.join();
    stop.store(true, std::memory_order_release);
    scraper.join();

    EXPECT_EQ(torn.load(), 0u);
    EXPECT_EQ(logger.records_logged(), kWriters * kPerWriter);
    EXPECT_EQ(logger.records_dropped(), 0u);
    // A final quiescent tail returns 16 valid records.
    const std::string tail = logger.tail_json(16);
    EXPECT_NE(tail.find("\"type\":\"tick\""), std::string::npos);
}

}  // namespace
