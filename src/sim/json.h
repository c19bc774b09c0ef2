/**
 * @file
 * The tree's one JSON reader, and the escaper and number formatters
 * every JSON emitter uses.
 *
 * One bounded recursive-descent parser reads the serve wire protocol,
 * workload files, and (through jsonValid) the artifacts the tree
 * emits, which tests and `manifest_check` check. Depth, byte and
 * token budgets make hostile input fail with a one-line diagnostic;
 * every node carries its byte offset for line/column diagnostics.
 *
 * The default parse() keeps the wire's historical limits and
 * errors: depth 32 and "<why> at byte N". Every caller reads numbers
 * in exactly the JSON grammar
 * (`-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`, finite); strtod's
 * extensions (hex, inf, nan, a leading '+' or '.', leading zeros, a
 * bare '.' or exponent) are "bad number".
 */

#ifndef MLPSIM_SIM_JSON_H
#define MLPSIM_SIM_JSON_H

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace mlps::sim {

/** Parse budgets; zero means "no limit" for the size-type fields. */
struct JsonLimits {
    /** Nesting ceiling; hostile input fails instead of recursing away. */
    int max_depth = 32;
    /** Document size ceiling in bytes (0 = unlimited). */
    std::size_t max_bytes = 0;
    /** Ceiling on parsed values (0 = unlimited). */
    std::size_t max_tokens = 0;
};

/** Parsed JSON value (object keys keep insertion order). */
struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Object, Array };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<std::pair<std::string, JsonValue>> object;
    std::vector<JsonValue> array;
    /** Byte offset of the value's first character in the document. */
    std::size_t offset = 0;

    /**
     * Parse a complete JSON document under the default (serve-
     * compatible) limits. @return false + error on junk.
     */
    static bool parse(const std::string &text, JsonValue *out,
                      std::string *error);

    /** Parse under explicit budgets. */
    static bool parse(const std::string &text, const JsonLimits &limits,
                      JsonValue *out, std::string *error);

    /** Object member by key; null when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
};

/**
 * Syntax-check a complete JSON document under the strict number
 * grammar. @return true when `text` parses; on failure `error` (if
 * given) names the first problem and its byte offset.
 */
bool jsonValid(const std::string &text, std::string *error = nullptr);

/**
 * Escape a byte string for embedding in a JSON string literal (quotes
 * not included): quotes and backslashes get a backslash, control
 * bytes below 0x20 become \n, \t, \r or \u00XX. Non-ASCII bytes pass
 * through verbatim (the emitters write UTF-8).
 */
std::string jsonEscape(const std::string &s);

/** Round-trip rendering of a double (%.17g; "0" when not finite). */
std::string jsonDouble(double v);

/**
 * Shortest %g rendering that reads back as the same double (at most
 * %.17g); manifests and metric snapshots use it.
 */
std::string shortestDouble(double v);

/**
 * Map a byte offset to 1-based line and column (tabs count one
 * column; offsets past the end clamp to the last position).
 */
void jsonLineCol(const std::string &text, std::size_t offset,
                 int *line, int *col);

} // namespace mlps::sim

#endif // MLPSIM_SIM_JSON_H
