#include "sim/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mlps::sim {

namespace {

/** printf's "%.<prec>g" of `v`, in the C locale. */
std::string
formatG(double v, int prec)
{
    char buf[40];
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::general, prec);
    return std::string(buf, res.ptr);
}

/**
 * Length of the JSON number at `p`, 0 when it does not start one:
 * -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
 */
std::size_t
grammarLength(const char *p)
{
    const char *q = p;
    auto digits = [&q] {
        const char *from = q;
        while (std::isdigit(static_cast<unsigned char>(*q)))
            ++q;
        return q != from;
    };
    if (*q == '-')
        ++q;
    if (*q == '0')
        ++q;
    else if (!digits())
        return 0;
    if (*q == '.') {
        ++q;
        if (!digits())
            return 0;
    }
    if (*q == 'e' || *q == 'E') {
        ++q;
        if (*q == '+' || *q == '-')
            ++q;
        if (!digits())
            return 0;
    }
    return static_cast<std::size_t>(q - p);
}

/** Recursive-descent JSON parser over one document. */
class Parser
{
  public:
    Parser(const std::string &text, const JsonLimits &limits,
           std::string *error)
        : s_(text), limits_(limits), error_(error) {}

    bool
    parseDocument(JsonValue *out)
    {
        if (limits_.max_bytes > 0 && s_.size() > limits_.max_bytes) {
            pos_ = limits_.max_bytes;
            return fail("document too large");
        }
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        if (pos_ != s_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &why)
    {
        if (error_ && error_->empty()) {
            char where[32];
            std::snprintf(where, sizeof(where), " at byte %zu", pos_);
            *error_ = why + where;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return fail("unrecognized token");
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue *out, int depth)
    {
        if (depth > limits_.max_depth)
            return fail("nesting too deep");
        if (limits_.max_tokens > 0 && ++tokens_ > limits_.max_tokens)
            return fail("too many tokens");
        if (pos_ >= s_.size())
            return fail("unexpected end of input");
        out->offset = pos_;
        switch (s_[pos_]) {
        case '{':
            return parseObject(out, depth);
        case '[':
            return parseArray(out, depth);
        case '"':
            out->kind = JsonValue::Kind::String;
            return parseString(&out->str);
        case 't':
            out->kind = JsonValue::Kind::Bool;
            out->boolean = true;
            return literal("true");
        case 'f':
            out->kind = JsonValue::Kind::Bool;
            out->boolean = false;
            return literal("false");
        case 'n':
            out->kind = JsonValue::Kind::Null;
            return literal("null");
        default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue *out, int depth)
    {
        out->kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            JsonValue value;
            if (!parseValue(&value, depth + 1))
                return false;
            out->object.emplace_back(std::move(key), std::move(value));
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue *out, int depth)
    {
        out->kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            JsonValue value;
            if (!parseValue(&value, depth + 1))
                return false;
            out->array.push_back(std::move(value));
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(std::string *out)
    {
        ++pos_; // '"'
        out->clear();
        while (pos_ < s_.size()) {
            unsigned char c = static_cast<unsigned char>(s_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= s_.size())
                    return fail("truncated escape");
                char e = s_[pos_ + 1];
                pos_ += 2;
                switch (e) {
                case '"': *out += '"'; break;
                case '\\': *out += '\\'; break;
                case '/': *out += '/'; break;
                case 'b': *out += '\b'; break;
                case 'f': *out += '\f'; break;
                case 'n': *out += '\n'; break;
                case 'r': *out += '\r'; break;
                case 't': *out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > s_.size())
                        return fail("truncated \\u escape");
                    unsigned int cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = s_[pos_ + i];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    pos_ += 4;
                    // UTF-8 encode the BMP code point (surrogate
                    // pairs are not reassembled; each half encodes
                    // independently, which is lossy but safe).
                    if (cp < 0x80) {
                        *out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        *out += static_cast<char>(0xc0 | (cp >> 6));
                        *out +=
                            static_cast<char>(0x80 | (cp & 0x3f));
                    } else {
                        *out += static_cast<char>(0xe0 | (cp >> 12));
                        *out += static_cast<char>(
                            0x80 | ((cp >> 6) & 0x3f));
                        *out +=
                            static_cast<char>(0x80 | (cp & 0x3f));
                    }
                    break;
                }
                default:
                    return fail("unknown escape");
                }
                continue;
            }
            if (c < 0x20)
                return fail("unescaped control character");
            *out += static_cast<char>(c);
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue *out)
    {
        const char *start = s_.c_str() + pos_;
        char *end = nullptr;
        double v = std::strtod(start, &end);
        if (end == start)
            return fail("expected a value");
        // strtod also reads inf/nan, hex floats, a leading '+' or '.',
        // leading zeros and "1."; take only what the JSON grammar
        // spans, and no overflow to infinity.
        if (grammarLength(start) != static_cast<std::size_t>(end - start) ||
            !std::isfinite(v))
            return fail("bad number");
        out->kind = JsonValue::Kind::Number;
        out->number = v;
        pos_ += static_cast<std::size_t>(end - start);
        return true;
    }

    const std::string &s_;
    const JsonLimits &limits_;
    std::string *error_;
    std::size_t pos_ = 0;
    std::size_t tokens_ = 0;
};

} // namespace

bool
JsonValue::parse(const std::string &text, JsonValue *out,
                 std::string *error)
{
    return parse(text, JsonLimits{}, out, error);
}

bool
JsonValue::parse(const std::string &text, const JsonLimits &limits,
                 JsonValue *out, std::string *error)
{
    if (error)
        error->clear();
    Parser p(text, limits, error);
    return p.parseDocument(out);
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

bool
jsonValid(const std::string &text, std::string *error)
{
    JsonValue doc;
    return JsonValue::parse(text, &doc, error);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\t') {
            out += "\\t";
        } else if (c == '\r') {
            out += "\\r";
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out;
}

std::string
jsonDouble(double v)
{
    if (!std::isfinite(v)) // NaN/inf are not JSON; error paths carry
        return "0";        // their value in `what`, not in cells
    return formatG(v, 17);
}

std::string
shortestDouble(double v)
{
    for (int prec = 1; prec < 17; ++prec) {
        std::string text = formatG(v, prec);
        double back = 0.0;
        std::from_chars(text.data(), text.data() + text.size(), back);
        if (back == v)
            return text;
    }
    return formatG(v, 17);
}

void
jsonLineCol(const std::string &text, std::size_t offset,
            int *line, int *col)
{
    int l = 1, c = 1;
    std::size_t end = offset < text.size() ? offset : text.size();
    for (std::size_t i = 0; i < end; ++i) {
        if (text[i] == '\n') {
            ++l;
            c = 1;
        } else {
            ++c;
        }
    }
    *line = l;
    *col = c;
}

} // namespace mlps::sim
