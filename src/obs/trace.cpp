#include "obs/trace.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "obs/format.hpp"
#include "obs/json.hpp"

namespace nautilus::obs {

namespace {

// A number token keeps its written kind: a '.' or exponent means double, a
// leading '-' means int64, anything else uint64.  The whole token must
// convert ("12-3" and "1e5e5" do not).  Doubles may underflow into the
// subnormal range, which the writer emits, but not overflow.
bool number_value(const std::string& token, FieldValue& out)
{
    const char* begin = token.c_str();
    char* end = nullptr;
    errno = 0;
    if (token.find_first_of(".eE") != std::string::npos) {
        const double d = std::strtod(begin, &end);
        out = d;
        return end == begin + token.size() && (errno == 0 || std::isfinite(d));
    }
    if (token.front() == '-') out = static_cast<std::int64_t>(std::strtoll(begin, &end, 10));
    else out = static_cast<std::uint64_t>(std::strtoull(begin, &end, 10));
    return end == begin + token.size() && errno == 0;
}

// The numeric kinds widened to double; nullopt for the others.
std::optional<double> as_double(const FieldValue& v)
{
    if (const auto* d = std::get_if<double>(&v)) return *d;
    if (const auto* i = std::get_if<std::int64_t>(&v)) return static_cast<double>(*i);
    if (const auto* u = std::get_if<std::uint64_t>(&v)) return static_cast<double>(*u);
    return std::nullopt;
}

bool field_value(json::Value& value, FieldValue& out)
{
    switch (value.kind) {
    case json::Value::Kind::string: out = std::move(value.text); return true;
    case json::Value::Kind::boolean: out = value.truth; return true;
    case json::Value::Kind::null: out = std::numeric_limits<double>::quiet_NaN(); return true;
    case json::Value::Kind::number: return number_value(value.text, out);
    case json::Value::Kind::array: break;
    }
    std::vector<double> vec;
    vec.reserve(value.items.size());
    for (const std::string& item : value.items) {
        FieldValue elem = std::numeric_limits<double>::quiet_NaN();
        if (item != "null" && !number_value(item, elem)) return false;
        vec.push_back(*as_double(elem));
    }
    out = std::move(vec);
    return true;
}

}  // namespace

const FieldValue* TraceEvent::find(std::string_view key) const
{
    for (const auto& [k, v] : fields)
        if (k == key) return &v;
    return nullptr;
}

std::optional<double> TraceEvent::number(std::string_view key) const
{
    const FieldValue* v = find(key);
    return v != nullptr ? as_double(*v) : std::nullopt;
}

std::optional<std::uint64_t> TraceEvent::unsigned_int(std::string_view key) const
{
    const FieldValue* v = find(key);
    if (v == nullptr) return std::nullopt;
    if (const auto* u = std::get_if<std::uint64_t>(v)) return *u;
    if (const auto* i = std::get_if<std::int64_t>(v); i != nullptr && *i >= 0)
        return static_cast<std::uint64_t>(*i);
    return std::nullopt;
}

std::optional<std::string> TraceEvent::string(std::string_view key) const
{
    const FieldValue* v = find(key);
    if (v == nullptr) return std::nullopt;
    if (const auto* s = std::get_if<std::string>(v)) return *s;
    return std::nullopt;
}

void append_field_value(std::string& out, const FieldValue& value)
{
    switch (value.index()) {
    case 0: out += std::get<bool>(value) ? "true" : "false"; break;
    case 1: out += std::to_string(std::get<std::int64_t>(value)); break;
    case 2: out += std::to_string(std::get<std::uint64_t>(value)); break;
    case 3: append_json_double(out, std::get<double>(value)); break;
    case 4: json::append_string(out, std::get<std::string>(value)); break;
    case 5: {
        const auto& vec = std::get<std::vector<double>>(value);
        out += '[';
        for (std::size_t i = 0; i < vec.size(); ++i) {
            if (i > 0) out += ',';
            append_json_double(out, vec[i]);
        }
        out += ']';
        break;
    }
    }
}

std::string to_jsonl(const TraceEvent& event)
{
    std::string out;
    out.reserve(64 + event.fields.size() * 16);
    out += "{\"type\":";
    json::append_string(out, event.type);
    out += ",\"t\":";
    append_json_double(out, event.t);
    for (const auto& [key, value] : event.fields) {
        out += ',';
        json::append_string(out, key);
        out += ':';
        append_field_value(out, value);
    }
    out += '}';
    return out;
}

std::optional<TraceEvent> parse_jsonl_line(std::string_view line)
{
    json::Object object;
    if (!json::read_object(line, object)) return std::nullopt;
    TraceEvent event{""};
    event.fields.reserve(object.size());
    bool have_type = false;
    for (auto& [key, raw] : object) {
        FieldValue value;
        if (!field_value(raw, value)) return std::nullopt;
        if (key == "type") {
            auto* s = std::get_if<std::string>(&value);
            if (s == nullptr) return std::nullopt;
            event.type = std::move(*s);
            have_type = true;
        }
        else if (key == "t") {
            const auto* d = std::get_if<double>(&value);
            if (d == nullptr) return std::nullopt;
            event.t = *d;
        }
        else {
            event.fields.emplace_back(std::move(key), std::move(value));
        }
    }
    if (!have_type) return std::nullopt;
    return event;
}

JsonlFileSink::JsonlFileSink(const std::string& path) : out_(path, std::ios::trunc)
{
    if (!out_) throw std::runtime_error("JsonlFileSink: cannot open '" + path + "'");
}

JsonlFileSink::~JsonlFileSink()
{
    flush();
}

void JsonlFileSink::write(const TraceEvent& event)
{
    const std::string line = to_jsonl(event);
    std::lock_guard lock{mutex_};
    out_ << line << '\n';
}

void JsonlFileSink::flush()
{
    std::lock_guard lock{mutex_};
    out_.flush();
}

void MemorySink::write(const TraceEvent& event)
{
    std::lock_guard lock{mutex_};
    events_.push_back(event);
}

std::vector<TraceEvent> MemorySink::events() const
{
    std::lock_guard lock{mutex_};
    return events_;
}

std::size_t MemorySink::size() const
{
    std::lock_guard lock{mutex_};
    return events_.size();
}

std::vector<TraceEvent> MemorySink::events_of(std::string_view type) const
{
    std::lock_guard lock{mutex_};
    std::vector<TraceEvent> out;
    for (const auto& e : events_)
        if (e.type == type) out.push_back(e);
    return out;
}

namespace {
thread_local int g_span_depth = 0;
}

ScopedTimer::ScopedTimer(const Tracer& tracer, std::string_view name)
{
    if (!tracer.enabled()) return;
    tracer_ = &tracer;
    name_ = name;
    start_ = std::chrono::steady_clock::now();
    depth_ = ++g_span_depth;
}

ScopedTimer::~ScopedTimer()
{
    if (tracer_ == nullptr) return;
    --g_span_depth;
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    TraceEvent event{"span"};
    event.add("name", FieldValue{std::move(name_)});
    event.add("seconds", FieldValue{seconds});
    event.add("depth", depth_);
    tracer_->emit(std::move(event));
}

}  // namespace nautilus::obs
