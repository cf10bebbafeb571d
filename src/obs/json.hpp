#pragma once
// The one JSON codec behind every surface: JSONL traces and service logs,
// job specs, /status, /lineage, /jobs and the Chrome export.
//
// Writing: one escaper -- `\" \\ \n \t \r`, every other byte below 0x20 as
// `\u00XX`, all other bytes verbatim -- and the shared %.17g double
// rendering (obs/format.hpp).  Writers build their objects by appending to
// a std::string; there is no document model.
//
// Reading: one flat-object reader for the subset those writers emit.  The
// top level is one object; values are strings, numbers, true/false, null
// or flat arrays of numbers and nulls -- nothing nested.  Whitespace is
// space, tab, CR or LF.  String escapes are `\" \\ \/ \n \t \r` and
// `\uXXXX` up to 0xff; raw control bytes are rejected.  A number token is
// the maximal run of `-+.eE0-9`, returned as text so each caller applies
// its own rule (the trace converts it by kind, the job spec insists on a
// plain decimal).  Pairs come back in source order, duplicate keys included.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nautilus::obs::json {

// Escaped bytes of `text`, without surrounding quotes.
std::string escaped(std::string_view text);
// `"` + escaped text + `"`.
void append_string(std::string& out, std::string_view text);

struct Value {
    enum class Kind { string, number, boolean, null, array };
    Kind kind = Kind::null;
    bool truth = false;              // boolean
    std::string text;                // string bytes, or the number token
    std::vector<std::string> items;  // array: number tokens and "null"
};

using Object = std::vector<std::pair<std::string, Value>>;

// Reads one flat object.  On failure returns false and, when `error` is
// given, says what was expected where ("expected ':' after \"seed\"").
bool read_object(std::string_view text, Object& out, std::string* error = nullptr);

}  // namespace nautilus::obs::json
