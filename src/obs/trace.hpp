#pragma once
// Structured trace layer: typed events serialized as JSONL to a pluggable
// sink.
//
// Every event is one flat JSON object per line -- `{"type":"eval_wave",
// "t":0.0123,"size":10,...}` -- so traces are greppable, diffable and
// trivially consumed by jq/pandas or the bundled `nautilus_trace` tool.
// Field values are typed (bool / int / uint / double / string / double
// array) and round-trip exactly through parse_jsonl_line(); non-finite
// doubles serialize as JSON null and parse back as NaN.
//
// The Tracer is a cheap value handle around a shared sink.  A
// default-constructed Tracer is *disabled*: enabled() is a single pointer
// test, and all instrumentation sites guard event construction behind it, so
// tracing off costs one predictable branch per site (verified by
// bench_engine_micro).  Sinks serialize concurrent writers internally, so
// one Tracer may be shared across engine and worker threads.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace nautilus::obs {

using FieldValue =
    std::variant<bool, std::int64_t, std::uint64_t, double, std::string, std::vector<double>>;

// One trace record.  `t` is seconds since the sink was opened (filled in by
// Tracer::emit); fields keep insertion order for stable serialization.
struct TraceEvent {
    std::string type;
    double t = 0.0;
    std::vector<std::pair<std::string, FieldValue>> fields;

    explicit TraceEvent(std::string event_type) : type(std::move(event_type)) {}

    TraceEvent& add(std::string_view key, FieldValue value)
    {
        fields.emplace_back(std::string{key}, std::move(value));
        return *this;
    }
    // Convenience overloads so call sites don't need explicit casts.
    TraceEvent& add(std::string_view key, std::size_t value)
    {
        return add(key, FieldValue{static_cast<std::uint64_t>(value)});
    }
    TraceEvent& add(std::string_view key, int value)
    {
        return add(key, FieldValue{static_cast<std::int64_t>(value)});
    }
    TraceEvent& add(std::string_view key, const char* value)
    {
        return add(key, FieldValue{std::string{value}});
    }

    // First field with this key, if any.
    const FieldValue* find(std::string_view key) const;
    // Typed lookups returning nullopt on missing key or kind mismatch
    // (integers widen to double for `number`).
    std::optional<double> number(std::string_view key) const;
    std::optional<std::uint64_t> unsigned_int(std::string_view key) const;
    std::optional<std::string> string(std::string_view key) const;
};

// One field value as to_jsonl writes it.
void append_field_value(std::string& out, const FieldValue& value);

// One JSON object on one line, no trailing newline.
std::string to_jsonl(const TraceEvent& event);

// Inverse of to_jsonl, read through the JSON codec (obs/json.hpp): "type"
// and "t" are reserved keys, and each number token must convert in full to
// the kind it was written as (subnormal doubles included).  Returns nullopt
// on malformed input.
std::optional<TraceEvent> parse_jsonl_line(std::string_view line);

// Receives serialized events.  Implementations must be safe to call from
// several threads.
class TraceSink {
public:
    virtual ~TraceSink() = default;
    virtual void write(const TraceEvent& event) = 0;
    virtual void flush() {}

    // Seconds since this sink was constructed (the trace's time origin).
    double seconds_since_open() const
    {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - opened_)
            .count();
    }

private:
    std::chrono::steady_clock::time_point opened_ = std::chrono::steady_clock::now();
};

// Appends one JSONL line per event.  Throws std::runtime_error if the file
// cannot be opened.
class JsonlFileSink final : public TraceSink {
public:
    explicit JsonlFileSink(const std::string& path);
    ~JsonlFileSink() override;

    void write(const TraceEvent& event) override;
    void flush() override;

private:
    std::mutex mutex_;
    std::ofstream out_;
};

// Keeps events in memory; for tests and in-process inspection.
class MemorySink final : public TraceSink {
public:
    void write(const TraceEvent& event) override;

    std::vector<TraceEvent> events() const;
    std::size_t size() const;
    // Events of one type, in emission order.
    std::vector<TraceEvent> events_of(std::string_view type) const;

private:
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
};

// Cheap, copyable handle.  Disabled (default) tracers make emit() a no-op
// and enabled() false so call sites can skip building events entirely.
class Tracer {
public:
    Tracer() = default;
    explicit Tracer(std::shared_ptr<TraceSink> sink) : sink_(std::move(sink)) {}

    bool enabled() const { return sink_ != nullptr; }
    TraceSink* sink() const { return sink_.get(); }

    // Stamps event.t and forwards to the sink; no-op when disabled.
    void emit(TraceEvent event) const
    {
        if (!sink_) return;
        event.t = sink_->seconds_since_open();
        sink_->write(event);
    }

private:
    std::shared_ptr<TraceSink> sink_;
};

// RAII scoped timer: emits a "span" event {name, seconds, depth} when the
// scope exits.  Depth counts live ScopedTimers on the current thread (outer
// span = 1), so nested phases reconstruct into a tree even though inner
// spans are emitted first.  Costs nothing when the tracer is disabled.
class ScopedTimer {
public:
    ScopedTimer(const Tracer& tracer, std::string_view name);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

    int depth() const { return depth_; }

private:
    const Tracer* tracer_ = nullptr;  // null when disabled
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    int depth_ = 0;
};

}  // namespace nautilus::obs
