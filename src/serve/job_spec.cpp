#include "serve/job_spec.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>

#include "ip/metrics.hpp"

namespace nautilus::serve {

namespace {

[[noreturn]] void fail(const std::string& message)
{
    throw std::invalid_argument(message);
}

// One parsed JSON value.  Numbers keep their source text so integer fields
// can reject fractions, exponents and negatives with the offending token in
// the message.
struct RawValue {
    enum class Kind { string, number, boolean };
    Kind kind = Kind::string;
    std::string text;
    bool truth = false;
};

void skip_ws(std::string_view s, std::size_t& i)
{
    while (i < s.size() &&
           (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r'))
        ++i;
}

std::string parse_quoted(std::string_view s, std::size_t& i)
{
    if (i >= s.size() || s[i] != '"') fail("spec is not valid JSON: expected a string");
    ++i;
    std::string out;
    while (i < s.size() && s[i] != '"') {
        char c = s[i++];
        if (c == '\\') {
            if (i >= s.size()) fail("spec is not valid JSON: unterminated escape");
            const char esc = s[i++];
            switch (esc) {
            case '"': c = '"'; break;
            case '\\': c = '\\'; break;
            case '/': c = '/'; break;
            case 'n': c = '\n'; break;
            case 't': c = '\t'; break;
            default: fail(std::string("spec is not valid JSON: unsupported escape '\\") +
                          esc + "'");
            }
        }
        else if (static_cast<unsigned char>(c) < 0x20) {
            fail("spec is not valid JSON: control character inside a string");
        }
        out += c;
    }
    if (i >= s.size()) fail("spec is not valid JSON: unterminated string");
    ++i;  // closing quote
    return out;
}

RawValue parse_value(std::string_view s, std::size_t& i)
{
    skip_ws(s, i);
    if (i >= s.size()) fail("spec is not valid JSON: expected a value");
    RawValue v;
    if (s[i] == '"') {
        v.kind = RawValue::Kind::string;
        v.text = parse_quoted(s, i);
        return v;
    }
    if (s.compare(i, 4, "true") == 0) {
        v.kind = RawValue::Kind::boolean;
        v.truth = true;
        i += 4;
        return v;
    }
    if (s.compare(i, 5, "false") == 0) {
        v.kind = RawValue::Kind::boolean;
        i += 5;
        return v;
    }
    const std::size_t start = i;
    while (i < s.size() && (s[i] == '-' || s[i] == '+' || s[i] == '.' ||
                            s[i] == 'e' || s[i] == 'E' ||
                            (s[i] >= '0' && s[i] <= '9')))
        ++i;
    if (i == start) fail("spec is not valid JSON: expected a string, number or boolean");
    v.kind = RawValue::Kind::number;
    v.text = std::string(s.substr(start, i - start));
    return v;
}

// The spec is a single flat object of string/number/boolean fields --
// nothing nested, nothing null.  Duplicate keys are rejected.
std::map<std::string, RawValue> parse_object(std::string_view s)
{
    std::size_t i = 0;
    skip_ws(s, i);
    if (i >= s.size() || s[i] != '{')
        fail("spec is not valid JSON: expected a '{...}' object");
    ++i;
    std::map<std::string, RawValue> fields;
    skip_ws(s, i);
    if (i < s.size() && s[i] == '}') {
        ++i;
    }
    else {
        for (;;) {
            skip_ws(s, i);
            const std::string key = parse_quoted(s, i);
            skip_ws(s, i);
            if (i >= s.size() || s[i] != ':')
                fail("spec is not valid JSON: expected ':' after \"" + key + "\"");
            ++i;
            const RawValue value = parse_value(s, i);
            if (!fields.emplace(key, value).second)
                fail("duplicate field '" + key + "'");
            skip_ws(s, i);
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            if (i < s.size() && s[i] == '}') {
                ++i;
                break;
            }
            fail("spec is not valid JSON: expected ',' or '}' after \"" + key + "\"");
        }
    }
    skip_ws(s, i);
    if (i != s.size()) fail("spec is not valid JSON: trailing content after the object");
    return fields;
}

std::string take_string(std::map<std::string, RawValue>& fields, const std::string& name,
                        std::string fallback)
{
    const auto it = fields.find(name);
    if (it == fields.end()) return fallback;
    if (it->second.kind != RawValue::Kind::string)
        fail("field '" + name + "' must be a string");
    std::string out = std::move(it->second.text);
    fields.erase(it);
    return out;
}

// Integer fields: the token must be a plain non-negative decimal -- no
// fractions, exponents or signs -- so "workers": -2 and "seed": 1e99 are
// both rejected with the offending text.
std::uint64_t take_uint(std::map<std::string, RawValue>& fields, const std::string& name,
                        std::uint64_t fallback, bool* present = nullptr)
{
    const auto it = fields.find(name);
    if (present != nullptr) *present = it != fields.end();
    if (it == fields.end()) return fallback;
    const RawValue& v = it->second;
    if (v.kind != RawValue::Kind::number)
        fail("field '" + name + "' must be a non-negative integer");
    if (v.text.find_first_of(".eE") != std::string::npos || v.text.front() == '-' ||
        v.text.front() == '+')
        fail("field '" + name + "' must be a non-negative integer (got " + v.text + ")");
    std::uint64_t out = 0;
    try {
        std::size_t used = 0;
        out = std::stoull(v.text, &used);
        if (used != v.text.size()) throw std::invalid_argument(v.text);
    }
    catch (const std::exception&) {
        fail("field '" + name + "' must be a non-negative integer (got " + v.text + ")");
    }
    fields.erase(it);
    return out;
}

const char* kAllowedFields =
    "engine, ip, metric, metric2, direction, guidance, generations, evals, "
    "population, seed, workers";

void validate_metric_name(const std::string& field, const std::string& name)
{
    if (!ip::metric_from_name(name))
        fail("unknown " + field + " '" + name +
             "' (see ip::metric_name for the metric list)");
}

void append_uint(std::string& out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
    out += buf;
}

}  // namespace

const char* default_metric(const std::string& ip)
{
    if (ip == "fft") return "area_luts";
    if (ip == "network") return "bisection_gbps";
    return "freq_mhz";
}

JobSpec parse_job_spec(std::string_view json)
{
    std::map<std::string, RawValue> fields = parse_object(json);

    JobSpec spec;
    spec.engine = take_string(fields, "engine", "");
    if (spec.engine.empty())
        fail("missing field 'engine' (expected one of: ga, nsga2, random, sa, hc)");
    if (spec.engine != "ga" && spec.engine != "nsga2" && spec.engine != "random" &&
        spec.engine != "sa" && spec.engine != "hc")
        fail("unknown engine '" + spec.engine +
             "' (expected one of: ga, nsga2, random, sa, hc)");

    spec.ip = take_string(fields, "ip", "router");
    if (spec.ip != "router" && spec.ip != "fft" && spec.ip != "network")
        fail("unknown ip '" + spec.ip + "' (expected router, fft, network)");

    spec.metric = take_string(fields, "metric", default_metric(spec.ip));
    validate_metric_name("metric", spec.metric);

    spec.metric2 = take_string(fields, "metric2", "");
    if (spec.engine == "nsga2") {
        if (spec.metric2.empty())
            fail("missing field 'metric2': nsga2 jobs map a two-metric front");
        validate_metric_name("metric2", spec.metric2);
        if (spec.metric2 == spec.metric)
            fail("fields 'metric' and 'metric2' must name different metrics");
    }
    else if (!spec.metric2.empty()) {
        fail("field 'metric2' only applies to engine 'nsga2'");
    }

    spec.direction = take_string(fields, "direction", "");
    if (spec.direction.empty()) {
        const auto m = ip::metric_from_name(spec.metric);
        spec.direction =
            ip::metric_default_direction(*m) == Direction::minimize ? "min" : "max";
    }
    else if (spec.direction != "min" && spec.direction != "max") {
        fail("field 'direction' must be 'min' or 'max' (got '" + spec.direction + "')");
    }

    spec.guidance = take_string(fields, "guidance", "none");
    if (spec.guidance != "none" && spec.guidance != "weak" && spec.guidance != "strong")
        fail("field 'guidance' must be none, weak or strong ('estimated' samples the "
             "space with extra RNG draws and is not allowed in job specs)");

    bool have_generations = false;
    bool have_evals = false;
    spec.generations =
        static_cast<std::size_t>(take_uint(fields, "generations", 0, &have_generations));
    spec.evals = static_cast<std::size_t>(take_uint(fields, "evals", 0, &have_evals));
    if (spec.evolutionary()) {
        if (have_evals)
            fail("field 'evals' does not apply to engine '" + spec.engine +
                 "' (its budget is 'generations')");
        if (!have_generations)
            fail("missing field 'generations': " + spec.engine +
                 " jobs take their budget in generations");
        if (spec.generations == 0)
            fail("field 'generations' must be a positive integer (got 0)");
    }
    else {
        if (have_generations)
            fail("field 'generations' does not apply to engine '" + spec.engine +
                 "' (its budget is 'evals', the distinct-evaluation cap)");
        if (!have_evals)
            fail("missing field 'evals': " + spec.engine +
                 " jobs take their budget in distinct evaluations");
        if (spec.evals == 0) fail("field 'evals' must be a positive integer (got 0)");
    }

    bool have_population = false;
    spec.population =
        static_cast<std::size_t>(take_uint(fields, "population", 0, &have_population));
    if (have_population) {
        if (!spec.evolutionary())
            fail("field 'population' does not apply to engine '" + spec.engine + "'");
        if (spec.population == 0)
            fail("field 'population' must be a positive integer (got 0)");
    }

    spec.seed = take_uint(fields, "seed", 1);
    spec.workers = static_cast<std::size_t>(take_uint(fields, "workers", 1));
    if (spec.workers == 0) fail("field 'workers' must be a positive integer (got 0)");

    if (!fields.empty())
        fail("unknown field '" + fields.begin()->first + "' (allowed: " + kAllowedFields +
             ")");
    return spec;
}

std::string canonical_spec_json(const JobSpec& spec)
{
    std::string out = "{\"engine\":\"" + json_escape(spec.engine) + "\"";
    out += ",\"ip\":\"" + json_escape(spec.ip) + "\"";
    out += ",\"metric\":\"" + json_escape(spec.metric) + "\"";
    if (!spec.metric2.empty()) out += ",\"metric2\":\"" + json_escape(spec.metric2) + "\"";
    out += ",\"direction\":\"" + json_escape(spec.direction) + "\"";
    out += ",\"guidance\":\"" + json_escape(spec.guidance) + "\"";
    if (spec.evolutionary()) {
        out += ",\"generations\":";
        append_uint(out, spec.generations);
        if (spec.population != 0) {
            out += ",\"population\":";
            append_uint(out, spec.population);
        }
    }
    else {
        out += ",\"evals\":";
        append_uint(out, spec.evals);
    }
    out += ",\"seed\":";
    append_uint(out, spec.seed);
    out += ",\"workers\":";
    append_uint(out, spec.workers);
    out += "}";
    return out;
}

std::uint64_t spec_fingerprint(const JobSpec& spec)
{
    const std::string canonical = canonical_spec_json(spec);
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
    for (const char c : canonical) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string checkpoint_file(const std::string& jobs_dir, const JobSpec& spec)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(spec_fingerprint(spec)));
    return jobs_dir + "/spec-" + hex + ".ckpt";
}

std::string json_escape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            }
            else {
                out += c;
            }
        }
    }
    return out;
}

}  // namespace nautilus::serve
