#include "serve/job_spec.hpp"

#include <charconv>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "ip/metrics.hpp"
#include "obs/json.hpp"

namespace nautilus::serve {

namespace {

[[noreturn]] void fail(const std::string& message)
{
    throw std::invalid_argument(message);
}

using Fields = std::map<std::string, obs::json::Value>;

// The spec is a single flat object of string/number/boolean fields --
// no arrays, no null.  Duplicate keys are rejected.
Fields parse_fields(std::string_view s)
{
    obs::json::Object object;
    std::string error;
    if (!obs::json::read_object(s, object, &error)) fail("spec is not valid JSON: " + error);
    Fields fields;
    for (auto& [key, value] : object) {
        if (value.kind == obs::json::Value::Kind::null ||
            value.kind == obs::json::Value::Kind::array)
            fail("spec is not valid JSON: expected a string, number or boolean");
        if (!fields.emplace(key, std::move(value)).second) fail("duplicate field '" + key + "'");
    }
    return fields;
}

std::string take_string(Fields& fields, const std::string& name, std::string fallback)
{
    const auto it = fields.find(name);
    if (it == fields.end()) return fallback;
    if (it->second.kind != obs::json::Value::Kind::string)
        fail("field '" + name + "' must be a string");
    std::string out = std::move(it->second.text);
    fields.erase(it);
    return out;
}

// Integer fields: the token must be a plain non-negative decimal -- no
// fractions, exponents or signs -- so "workers": -2 and "seed": 1e99 are
// both rejected with the offending text.
std::uint64_t take_uint(Fields& fields, const std::string& name, std::uint64_t fallback,
                        bool* present = nullptr)
{
    const auto it = fields.find(name);
    if (present != nullptr) *present = it != fields.end();
    if (it == fields.end()) return fallback;
    const obs::json::Value& v = it->second;
    if (v.kind != obs::json::Value::Kind::number)
        fail("field '" + name + "' must be a non-negative integer");
    std::uint64_t out = 0;
    const char* end = v.text.data() + v.text.size();
    if (const auto [ptr, ec] = std::from_chars(v.text.data(), end, out);
        ec != std::errc{} || ptr != end)
        fail("field '" + name + "' must be a non-negative integer (got " + v.text + ")");
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

}  // namespace

const char* default_metric(const std::string& ip)
{
    if (ip == "fft") return "area_luts";
    if (ip == "network") return "bisection_gbps";
    return "freq_mhz";
}

JobSpec parse_job_spec(std::string_view json)
{
    Fields fields = parse_fields(json);

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
    std::string out = "{";
    const auto key = [&out](std::string_view name) {
        if (out.size() > 1) out += ',';
        obs::json::append_string(out, name);
        out += ':';
    };
    const auto text = [&](std::string_view name, const std::string& value) {
        key(name);
        obs::json::append_string(out, value);
    };
    const auto number = [&](std::string_view name, std::uint64_t value) {
        key(name);
        out += std::to_string(value);
    };
    text("engine", spec.engine);
    text("ip", spec.ip);
    text("metric", spec.metric);
    if (!spec.metric2.empty()) text("metric2", spec.metric2);
    text("direction", spec.direction);
    text("guidance", spec.guidance);
    if (spec.evolutionary()) {
        number("generations", spec.generations);
        if (spec.population != 0) number("population", spec.population);
    }
    else {
        number("evals", spec.evals);
    }
    number("seed", spec.seed);
    number("workers", spec.workers);
    out += '}';
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
    return obs::json::escaped(text);
}

}  // namespace nautilus::serve
