#include "obs/json.hpp"

#include <charconv>
#include <cstdio>

namespace nautilus::obs::json {

namespace {

void append_escaped(std::string& out, std::string_view text)
{
    // Bytes that need no escape are copied in runs.
    std::size_t run = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const auto c = static_cast<unsigned char>(text[i]);
        if (c >= 0x20 && c != '"' && c != '\\') continue;
        out.append(text.data() + run, i - run);
        run = i + 1;
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default: {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
            out += buf;
        }
        }
    }
    out.append(text.data() + run, text.size() - run);
}

bool is_space(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

bool is_number_char(char c)
{
    return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' ||
           c == 'E';
}

class Reader {
public:
    Reader(std::string_view in, std::string* error) : in_(in), error_(error) {}

    bool read_object(Object& out)
    {
        out.clear();
        skip_ws();
        if (!at('{')) return fail("expected a '{...}' object");
        ++pos_;
        skip_ws();
        if (at('}')) {
            ++pos_;
        }
        else {
            for (;;) {
                skip_ws();
                auto& [key, value] = out.emplace_back();
                if (!read_string(key)) return false;
                skip_ws();
                if (!at(':')) return fail("expected ':' after \"" + key + "\"");
                ++pos_;
                if (!read_value(value)) return false;
                skip_ws();
                if (at(',')) {
                    ++pos_;
                    continue;
                }
                if (at('}')) {
                    ++pos_;
                    break;
                }
                return fail("expected ',' or '}' after \"" + key + "\"");
            }
        }
        skip_ws();
        if (pos_ != in_.size()) return fail("trailing content after the object");
        return true;
    }

private:
    bool fail(std::string message)
    {
        if (error_ != nullptr) *error_ = std::move(message);
        return false;
    }

    bool at(char c) const { return pos_ < in_.size() && in_[pos_] == c; }

    void skip_ws()
    {
        while (pos_ < in_.size() && is_space(in_[pos_])) ++pos_;
    }

    bool literal(std::string_view word)
    {
        if (in_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }

    std::string_view number_token()
    {
        const std::size_t start = pos_;
        while (pos_ < in_.size() && is_number_char(in_[pos_])) ++pos_;
        return in_.substr(start, pos_ - start);
    }

    bool read_string(std::string& out)
    {
        if (!at('"')) return fail("expected a string");
        ++pos_;
        while (pos_ < in_.size()) {
            const char c = in_[pos_++];
            if (c == '"') return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("control character inside a string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= in_.size()) return fail("unterminated escape");
            const char esc = in_[pos_++];
            switch (esc) {
            case '"':
            case '\\':
            case '/': out += esc; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'u': {
                // Writers only escape control bytes, so code points stop at 0xff.
                const std::string_view hex = in_.substr(pos_, 4);
                if (hex.size() < 4) return fail("unterminated escape");
                unsigned code = 0;
                const auto [end, ec] = std::from_chars(hex.data(), hex.data() + 4, code, 16);
                if (ec != std::errc{} || end != hex.data() + 4 || code > 0xff)
                    return fail("unsupported escape '\\u" + std::string{hex} + "'");
                pos_ += 4;
                out += static_cast<char>(code);
                break;
            }
            default: return fail(std::string{"unsupported escape '\\"} + esc + "'");
            }
        }
        return fail("unterminated string");
    }

    bool read_value(Value& out)
    {
        skip_ws();
        if (pos_ >= in_.size()) return fail("expected a value");
        if (at('"')) {
            out.kind = Value::Kind::string;
            return read_string(out.text);
        }
        if (at('[')) return read_array(out);
        if (literal("true")) {
            out.kind = Value::Kind::boolean;
            out.truth = true;
            return true;
        }
        if (literal("false")) {
            out.kind = Value::Kind::boolean;
            return true;
        }
        if (literal("null")) {
            out.kind = Value::Kind::null;
            return true;
        }
        // The job spec's wording: null and arrays only appear in traces.
        out.text = number_token();
        if (out.text.empty()) return fail("expected a string, number or boolean");
        out.kind = Value::Kind::number;
        return true;
    }

    bool read_array(Value& out)
    {
        ++pos_;  // '['
        out.kind = Value::Kind::array;
        skip_ws();
        if (at(']')) {
            ++pos_;
            return true;
        }
        for (;;) {
            skip_ws();
            const std::string_view item = literal("null") ? "null" : number_token();
            if (item.empty()) return fail("expected a number or null inside an array");
            out.items.emplace_back(item);
            skip_ws();
            if (at(']')) {
                ++pos_;
                return true;
            }
            if (!at(',')) return fail("expected ',' or ']' inside an array");
            ++pos_;
        }
    }

    std::string_view in_;
    std::size_t pos_ = 0;
    std::string* error_;
};

}  // namespace

std::string escaped(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    append_escaped(out, text);
    return out;
}

void append_string(std::string& out, std::string_view text)
{
    out += '"';
    append_escaped(out, text);
    out += '"';
}

bool read_object(std::string_view text, Object& out, std::string* error)
{
    return Reader{text, error}.read_object(out);
}

}  // namespace nautilus::obs::json
