/**
 * @file
 * Minimal JSON parser and the one schema engine behind every JSON
 * artifact check (`hwdbg obscheck`, the readers of coverage and trace
 * files, and the debug/serve request parser).
 *
 * Each versioned format is a Schema table that sits next to its
 * emitter: a tree of typed nodes with required or optional object
 * members, an element node for arrays (and for the values of
 * free-keyed objects), and at most one cross-field rule per node for
 * the invariants a shape cannot express. checkJson() walks a parsed
 * document against a table and returns the first violation as one
 * path-qualified message, e.g. `commands[2].p95_us: expected number`.
 *
 * The parser handles the full JSON grammar (objects, arrays, strings
 * with escapes, numbers, booleans, null) with no external dependency,
 * and refuses input nested deeper than kMaxJsonDepth instead of
 * recursing until the stack overflows; it exists for validation, not
 * speed.
 */

#ifndef HWDBG_OBS_JSONCHECK_HH
#define HWDBG_OBS_JSONCHECK_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace hwdbg::obs
{

struct JsonValue;
using JsonPtr = std::shared_ptr<JsonValue>;

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;

    bool boolean = false;
    double number = 0;
    std::string text;
    std::vector<JsonPtr> elems;
    /** Insertion-ordered object members. */
    std::vector<std::pair<std::string, JsonPtr>> members;

    /** Member by key, or nullptr. */
    const JsonValue *get(const std::string &key) const;
    /** Member by key that a schema check has already required. */
    const JsonValue &operator[](const std::string &key) const
    {
        return *get(key);
    }
    /** A number a schema integer node has already vetted. */
    uint64_t asUint() const { return static_cast<uint64_t>(number); }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
};

/**
 * Deepest array/object nesting parseJson() accepts. hwdbg's own
 * artifacts nest a handful of levels; hostile input beyond this fails
 * with "nesting deeper than" instead of exhausting the stack.
 */
inline constexpr int kMaxJsonDepth = 256;

/**
 * Largest magnitude an integer node accepts: 2^53 - 1, the last
 * integer a double (and so every JSON reader) holds exactly.
 */
inline constexpr double kMaxSafeInteger = 9007199254740991.0;

/**
 * Parse @p text. On success returns the root and clears @p error; on
 * failure returns nullptr and sets @p error to "offset N: reason".
 */
JsonPtr parseJson(const std::string &text, std::string *error);

/** One node of a format table. Build nodes with the helpers below. */
struct Schema
{
    enum class Type { Null, Bool, Number, Integer, String, Array, Object,
                      Any };
    /**
     * Cross-field invariant, run after the node's shape has passed:
     * "" when it holds, else the reason. A reason may open with a
     * relative path ("[2]: ..." or ".depth: ...") to point inside the
     * node.
     */
    using Rule = std::string (*)(const JsonValue &value);
    struct Member;

    Type type = Type::Any;
    /** Null is accepted as well as the type. */
    bool nullable = false;
    /** String: the allowed values (empty: any string). */
    std::vector<std::string> oneOf{};
    /** Number/Integer: inclusive bounds (equal: an exact value). */
    double min = -std::numeric_limits<double>::infinity();
    double max = std::numeric_limits<double>::infinity();
    /** Object: the declared members. */
    std::vector<Member> members{};
    /** Object: declared members appear in declared order, and no
     *  other member appears. */
    bool ordered = false;
    /** Array: every element. Object: every undeclared member. */
    std::shared_ptr<const Schema> element{};
    Rule rule = nullptr;
};

struct Schema::Member
{
    std::string key;
    Schema node;
    bool required = true;
};

// Node builders: a format table reads like the document it checks.
inline Schema anyValue() { return {}; }
inline Schema boolean() { return {.type = Schema::Type::Bool}; }
/** A number no smaller than @p min. */
inline Schema number(double min = -std::numeric_limits<double>::infinity())
{
    return {.type = Schema::Type::Number, .min = min};
}
/** An integral number in [@p min, @p max], within ±kMaxSafeInteger. */
inline Schema integer(double min = -kMaxSafeInteger,
                      double max = kMaxSafeInteger)
{
    return {.type = Schema::Type::Integer,
            .min = std::max(min, -kMaxSafeInteger),
            .max = std::min(max, kMaxSafeInteger)};
}
/** The integer @p value and nothing else (format versions). */
inline Schema exactly(double value) { return integer(value, value); }
inline Schema string(Schema::Rule rule = nullptr)
{
    return {.type = Schema::Type::String, .rule = rule};
}
/** A string equal to one of @p values. */
inline Schema oneOf(std::vector<std::string> values)
{
    return {.type = Schema::Type::String, .oneOf = std::move(values)};
}
/** @p node, or null. */
inline Schema nullable(Schema node)
{
    node.nullable = true;
    return node;
}
inline Schema arrayOf(Schema element, Schema::Rule rule = nullptr)
{
    return {.type = Schema::Type::Array,
            .element = std::make_shared<const Schema>(std::move(element)),
            .rule = rule};
}
/** An object with free keys whose values all match @p value. */
inline Schema mapOf(Schema value)
{
    return {.type = Schema::Type::Object,
            .element = std::make_shared<const Schema>(std::move(value))};
}
/** An object with @p members in any order; others are ignored. */
inline Schema object(std::vector<Schema::Member> members,
                     Schema::Rule rule = nullptr)
{
    return {.type = Schema::Type::Object, .members = std::move(members),
            .rule = rule};
}
/** An object with exactly @p members, in declared order. */
inline Schema ordered(std::vector<Schema::Member> members,
                      Schema::Rule rule = nullptr)
{
    return {.type = Schema::Type::Object, .members = std::move(members),
            .ordered = true, .rule = rule};
}

/** The "build" provenance node every artifact carries
 *  (obs::buildInfoJson()): tool "hwdbg", version, git, type. */
const Schema &buildSchema();
/** A 64-bit quantity as hexU64() text (obs/json.hh). */
const Schema &hexU64Schema();

/** "" when @p value matches @p schema, else the first violation. */
std::string checkJson(const Schema &schema, const JsonValue &value);
/** Parse @p text, then check it; "" when valid. */
std::string checkJson(const Schema &schema, const std::string &text);
/** Parse and check @p text: the root, or nullptr and @p error. */
JsonPtr parseChecked(const Schema &schema, const std::string &text,
                     std::string *error);
/**
 * Check a JSON-lines transcript: @p hello on line 1, @p response on
 * every later line, no empty lines. "" when valid, else
 * "line N: reason".
 */
std::string checkJsonLines(const Schema &hello, const Schema &response,
                           const std::string &text);

} // namespace hwdbg::obs

#endif // HWDBG_OBS_JSONCHECK_HH
