// The JSON codec (obs/json.hpp) and the surfaces built on it: reader
// grammar, the trace's number conversion (subnormals in, partial tokens
// out), job-spec messages, one escaping across every surface, and a
// seeded mutation fuzz over job specs and recorded trace lines.

#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/lineage.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "serve/engine_factory.hpp"
#include "serve/job_spec.hpp"
#include "serve/scheduler.hpp"

namespace nautilus {
namespace {

using obs::FieldValue;
using obs::TraceEvent;
namespace json = obs::json;

std::string read_error(std::string_view text)
{
    json::Object object;
    std::string error;
    EXPECT_FALSE(json::read_object(text, object, &error)) << text;
    return error;
}

std::string spec_error(const std::string& text)
{
    try {
        (void)serve::parse_job_spec(text);
    }
    catch (const std::invalid_argument& e) {
        return e.what();
    }
    ADD_FAILURE() << "spec accepted: " << text;
    return {};
}

// ------------------------------------------------------------- the reader

TEST(JsonCodec, ReaderKeepsPairsInOrderWithDuplicates)
{
    json::Object object;
    ASSERT_TRUE(json::read_object(
        "\r\n{ \"b\" :\t\"x\\/y\\u00e9\\u0001\",\n\"a\":-1.5e3 ,\"b\":true,\"n\":null,"
        "\"v\":[ 1 , null,-2 ],\"e\":[]}\r\n",
        object));
    ASSERT_EQ(object.size(), 6u);
    EXPECT_EQ(object[0].first, "b");
    EXPECT_EQ(object[0].second.kind, json::Value::Kind::string);
    EXPECT_EQ(object[0].second.text, "x/y\xe9\x01");
    EXPECT_EQ(object[1].second.kind, json::Value::Kind::number);
    EXPECT_EQ(object[1].second.text, "-1.5e3");
    EXPECT_EQ(object[2].first, "b");
    EXPECT_TRUE(object[2].second.truth);
    EXPECT_EQ(object[3].second.kind, json::Value::Kind::null);
    EXPECT_EQ(object[4].second.items, (std::vector<std::string>{"1", "null", "-2"}));
    EXPECT_TRUE(object[5].second.items.empty());
    ASSERT_TRUE(json::read_object("{}", object));
    EXPECT_TRUE(object.empty());
}

TEST(JsonCodec, ReaderRejectsWhatNoWriterEmits)
{
    EXPECT_EQ(read_error("[1]"), "expected a '{...}' object");
    EXPECT_EQ(read_error("{\"a\":{\"b\":1}}"), "expected a string, number or boolean");
    EXPECT_EQ(read_error("{\"a\":[[1]]}"), "expected a number or null inside an array");
    EXPECT_EQ(read_error("{\"a\":[\"s\"]}"), "expected a number or null inside an array");
    EXPECT_EQ(read_error("{\"a\":[1 2]}"), "expected ',' or ']' inside an array");
    EXPECT_EQ(read_error("{\"a\":\"\x01\"}"), "control character inside a string");
    EXPECT_EQ(read_error("{\"a\":\"\\u0100\"}"), "unsupported escape '\\u0100'");
    EXPECT_EQ(read_error("{\"a\":\"\\u00g0\"}"), "unsupported escape '\\u00g0'");
    EXPECT_EQ(read_error("{\"a\":\"\\u00"), "unterminated escape");
    EXPECT_EQ(read_error("{\"a\":\"\\b\"}"), "unsupported escape '\\b'");
    EXPECT_EQ(read_error("{\"a\"\f:1}"), "expected ':' after \"a\"");
    EXPECT_EQ(read_error("{\"a\":1}x"), "trailing content after the object");
}

TEST(JsonCodec, EscaperMatchesTheTraceRules)
{
    std::string all;
    for (int c = 0; c < 0x20; ++c) all += static_cast<char>(c);
    all += "\"\\/\x7f\xff";
    EXPECT_EQ(json::escaped(all),
              "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n"
              "\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015"
              "\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
              "\\\"\\\\/\x7f\xff");
    // Everything the escaper writes, the reader reads back byte for byte.
    std::string line = "{\"s\":";
    json::append_string(line, all);
    line += '}';
    json::Object object;
    ASSERT_TRUE(json::read_object(line, object));
    EXPECT_EQ(object[0].second.text, all);
}

// ------------------------------------------------------ trace conversion

TEST(ObsTrace, SubnormalAndExtremeDoublesRoundTrip)
{
    const std::vector<double> values = {4.9406564584124654e-324,
                                        9.9999999999999694e-311,
                                        2.2250738585072009e-308,
                                        DBL_TRUE_MIN,
                                        DBL_MIN,
                                        -0.0,
                                        DBL_MAX,
                                        -DBL_MAX,
                                        0.1};
    TraceEvent ev{"doubles"};
    for (std::size_t i = 0; i < values.size(); ++i)
        ev.add("d" + std::to_string(i), FieldValue{values[i]});
    ev.add("nan", FieldValue{std::numeric_limits<double>::quiet_NaN()});
    ev.add("vec", FieldValue{values});
    const std::string line = obs::to_jsonl(ev);
    EXPECT_NE(line.find("\"d0\":4.9406564584124654e-324"), std::string::npos) << line;
    EXPECT_NE(line.find("\"nan\":null"), std::string::npos) << line;

    const auto back = obs::parse_jsonl_line(line);
    ASSERT_TRUE(back.has_value()) << line;
    const auto& vec = std::get<std::vector<double>>(*back->find("vec"));
    ASSERT_EQ(vec.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        const double scalar = std::get<double>(*back->find("d" + std::to_string(i)));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar), std::bit_cast<std::uint64_t>(values[i]))
            << values[i];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(vec[i]), std::bit_cast<std::uint64_t>(values[i]))
            << values[i];
    }
    EXPECT_TRUE(std::isnan(std::get<double>(*back->find("nan"))));
    EXPECT_EQ(obs::to_jsonl(*back), line);
}

TEST(ObsTrace, NumberTokensMustConvertInFull)
{
    for (const char* bad : {"12-3", "1.2.3", "1e5e5", "--1", "-", "+", ".", "e5", "1e999",
                            "-1e999", "18446744073709551616", "-9223372036854775809"}) {
        EXPECT_FALSE(obs::parse_jsonl_line(std::string{"{\"type\":\"x\",\"n\":"} + bad + "}"))
            << bad;
        EXPECT_FALSE(obs::parse_jsonl_line(std::string{"{\"type\":\"x\",\"v\":[1,"} + bad + "]}"))
            << bad;
    }
    EXPECT_FALSE(obs::parse_jsonl_line("{\"type\":\"x\",\"t\":12-3}"));
    const auto ok = obs::parse_jsonl_line(
        "{\"type\":\"x\",\"t\":1e-3,\"u\":12,\"i\":-3,\"d\":1.5,\"z\":1e-400}");
    ASSERT_TRUE(ok.has_value());
    EXPECT_DOUBLE_EQ(ok->t, 1e-3);
    EXPECT_EQ(std::get<std::uint64_t>(*ok->find("u")), 12u);
    EXPECT_EQ(std::get<std::int64_t>(*ok->find("i")), -3);
    EXPECT_EQ(std::get<double>(*ok->find("d")), 1.5);
    EXPECT_EQ(std::get<double>(*ok->find("z")), 0.0);  // underflow is not an error
}

// ------------------------------------------------------------- job specs

TEST(JobSpec, EveryReaderMessageKeepsItsWording)
{
    const std::string p = "spec is not valid JSON: ";
    EXPECT_EQ(spec_error("not json"), p + "expected a '{...}' object");
    EXPECT_EQ(spec_error("{engine:1}"), p + "expected a string");
    EXPECT_EQ(spec_error("{\"engine\":\"ga\\"), p + "unterminated escape");
    EXPECT_EQ(spec_error("{\"engine\":\"g\\a\"}"), p + "unsupported escape '\\a'");
    EXPECT_EQ(spec_error("{\"engine\":\"g\na\"}"), p + "control character inside a string");
    EXPECT_EQ(spec_error("{\"engine\":\"ga"), p + "unterminated string");
    EXPECT_EQ(spec_error("{\"engine\":"), p + "expected a value");
    for (const char* value : {"}", "null", "[1]", "{}"})
        EXPECT_EQ(spec_error(std::string{"{\"engine\":"} + value + "}"),
                  p + "expected a string, number or boolean")
            << value;
    EXPECT_EQ(spec_error("{\"engine\" \"ga\"}"), p + "expected ':' after \"engine\"");
    EXPECT_EQ(spec_error("{\"engine\":\"ga\" \"seed\":1}"),
              p + "expected ',' or '}' after \"engine\"");
    EXPECT_EQ(spec_error("{\"engine\":\"ga\"} {}"), p + "trailing content after the object");
    EXPECT_EQ(spec_error(R"({"engine":"ga","seed":1,"seed":2})"), "duplicate field 'seed'");
    EXPECT_EQ(spec_error(R"({"engine":1})"), "field 'engine' must be a string");
    EXPECT_EQ(spec_error(R"({"engine":"ga","generations":true})"),
              "field 'generations' must be a non-negative integer");
}

TEST(JobSpec, IntegerTokensKeepTheirGotText)
{
    for (const char* bad : {"12-3", "1.2.3", "1e5e5", "--1", "+5", "1e2", "99999999999999999999"})
        EXPECT_EQ(spec_error(std::string{R"({"engine":"ga","generations":)"} + bad + "}"),
                  std::string{"field 'generations' must be a non-negative integer (got "} +
                      bad + ")");
}

// --------------------------------------------------- surfaces agree

// One string with a quote, a backslash, CR and every byte 0x01-0x1f renders
// identically in a trace line, /status `engine`, /lineage `engine`, the
// Chrome args and a failed job's `error`.
TEST(JsonAgreement, OneStringRendersIdenticallyOnEverySurface)
{
    std::string text = "q\"b\\c\r";
    for (int c = 0x01; c < 0x20; ++c) text += static_cast<char>(c);
    const std::string expected =
        "q\\\"b\\\\c\\r\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n"
        "\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016"
        "\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f";
    const auto contains = [&](const std::string& surface, const std::string& prefix) {
        EXPECT_NE(surface.find(prefix + expected), std::string::npos) << surface;
    };

    TraceEvent ev{"agree"};
    ev.add("s", FieldValue{text});
    contains(obs::to_jsonl(ev), "\"s\":\"");
    contains(obs::chrome_trace_json({ev}), "\"s\":\"");

    obs::ProgressSnapshot progress;
    progress.engine = text;
    contains(obs::to_json(progress), "\"engine\":\"");

    obs::LineageCounters lineage;
    lineage.have_last = true;
    lineage.engine = text;
    contains(obs::to_json(lineage), "\"engine\":\"");

    EXPECT_EQ(serve::json_escape(text), expected);

    // The job fails because its trace directory does not exist; the error
    // names that directory.
    serve::SchedulerConfig cfg;
    cfg.jobs_dir = "json-agreement-" + text;
    serve::JobScheduler sched{cfg};
    const serve::SubmitResult r = sched.submit(R"({"engine":"random","evals":3})");
    ASSERT_EQ(r.status, 201);
    ASSERT_TRUE(sched.wait(r.id, 30.0));
    ASSERT_EQ(sched.state(r.id), serve::JobState::failed);
    contains(sched.status_json(r.id), "\"error\":\"JsonlFileSink: cannot open 'json-agreement-");
}

// ------------------------------------------------------------------ fuzz

// A recorded trace: a short traced GA job with lineage on.
std::vector<std::string> recorded_trace_lines()
{
    const std::string path = testing::TempDir() + "json_fuzz_trace.jsonl";
    serve::JobRunInputs inputs;
    inputs.trace_path = path;
    inputs.obs.lineage = std::make_shared<obs::LineageTracker>();
    (void)serve::run_job(serve::parse_job_spec(R"({"engine":"ga","guidance":"strong",)"
                                               R"("generations":3,"population":8,"seed":5})"),
                         inputs);
    std::vector<std::string> lines;
    std::ifstream in{path};
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::filesystem::remove(path);
    return lines;
}

std::string mutate(std::string s, std::mt19937_64& rng)
{
    static const std::vector<std::string> tokens = {
        "\"", "\\", "\\u00", "\\u0100", "\\r", "{", "}", "[", "]", ",", ":", "null", "true",
        "false", "-", "+", ".", "e", "E", "0", "9", "1e999", "4.9406564584124654e-324",
        "\r", "\n", "\t", " ", "\x01", "\x1f", "\x7f", "\xff", "\"type\":", "\"t\":"};
    const auto pick = [&rng](std::size_t n) {
        return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
    };
    const std::size_t rounds = 1 + pick(3);
    for (std::size_t r = 0; r < rounds; ++r) {
        const std::size_t at = pick(s.size() + 1);
        switch (pick(5)) {
        case 0:
            if (at < s.size()) s[at] = static_cast<char>(rng());
            break;
        case 1: s.insert(at, tokens[pick(tokens.size())]); break;
        case 2: s.erase(at, 1 + pick(8)); break;
        case 3: s.insert(at, s.substr(pick(s.size()), 1 + pick(16))); break;
        default: s.resize(at); break;
        }
    }
    return s;
}

TEST(JsonFuzz, SpecsAndTraceLinesSurviveMutation)
{
    std::vector<std::string> corpus;
    for (const auto& entry : std::filesystem::directory_iterator{NAUTILUS_TEST_SPECS_DIR}) {
        std::ifstream in{entry.path()};
        corpus.emplace_back(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
    }
    ASSERT_GE(corpus.size(), 8u);
    const std::vector<std::string> trace = recorded_trace_lines();
    ASSERT_GT(trace.size(), 20u);
    corpus.insert(corpus.end(), trace.begin(), trace.end());

    std::mt19937_64 rng{20150607};
    std::size_t accepted_lines = 0;
    std::size_t accepted_specs = 0;
    for (int i = 0; i < 20000; ++i) {
        const std::string input = mutate(corpus[rng() % corpus.size()], rng);
        try {
            (void)serve::parse_job_spec(input);
            ++accepted_specs;
        }
        catch (const std::invalid_argument&) {
        }
        catch (...) {
            ADD_FAILURE() << "parse_job_spec threw something else on: " << input;
        }
        const auto ev = obs::parse_jsonl_line(input);
        if (!ev) continue;
        ++accepted_lines;
        const std::string once = obs::to_jsonl(*ev);
        const auto again = obs::parse_jsonl_line(once);
        ASSERT_TRUE(again.has_value()) << "rewritten line does not parse: " << once;
        ASSERT_EQ(obs::to_jsonl(*again), once) << "from: " << input;
    }
    // The mutants exercise both the accepting and the rejecting paths.
    EXPECT_GT(accepted_lines, 1000u);
    EXPECT_GT(accepted_specs, 10u);
}

}  // namespace
}  // namespace nautilus
