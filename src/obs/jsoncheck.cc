#include "obs/jsoncheck.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "obs/json.hh"

namespace hwdbg::obs
{

const JsonValue *
JsonValue::get(const std::string &key) const
{
    for (const auto &[name, value] : members)
        if (name == key)
            return value.get();
    return nullptr;
}

namespace
{

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonPtr
    run(std::string *error)
    {
        error_.clear();
        JsonPtr root = value();
        skipWs();
        if (root && pos_ != text_.size())
            fail("trailing characters after document");
        if (!error_.empty()) {
            *error = "offset " + std::to_string(pos_) + ": " + error_;
            return nullptr;
        }
        error->clear();
        return root;
    }

  private:
    void
    fail(const std::string &why)
    {
        if (error_.empty())
            error_ = why;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        size_t n = 0;
        while (word[n])
            ++n;
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonPtr
    value()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return nullptr;
        }
        char c = text_[pos_];
        if (c == '{' || c == '[') {
            if (++depth_ > kMaxJsonDepth) {
                fail("nesting deeper than " +
                     std::to_string(kMaxJsonDepth));
                return nullptr;
            }
            JsonPtr out = c == '{' ? object() : array();
            --depth_;
            return out;
        }
        if (c == '"')
            return string();
        if (c == 't' || c == 'f' || c == 'n')
            return keyword();
        if (c == '-' || (c >= '0' && c <= '9'))
            return numberValue();
        fail(std::string("unexpected character '") + c + "'");
        return nullptr;
    }

    JsonPtr
    object()
    {
        ++pos_; // '{'
        auto out = std::make_shared<JsonValue>();
        out->kind = JsonValue::Kind::Object;
        if (eat('}'))
            return out;
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key string");
                return nullptr;
            }
            JsonPtr key = string();
            if (!key)
                return nullptr;
            if (!eat(':')) {
                fail("expected ':' after object key");
                return nullptr;
            }
            JsonPtr val = value();
            if (!val)
                return nullptr;
            out->members.emplace_back(key->text, std::move(val));
            if (eat(','))
                continue;
            if (eat('}'))
                return out;
            fail("expected ',' or '}' in object");
            return nullptr;
        }
    }

    JsonPtr
    array()
    {
        ++pos_; // '['
        auto out = std::make_shared<JsonValue>();
        out->kind = JsonValue::Kind::Array;
        if (eat(']'))
            return out;
        for (;;) {
            JsonPtr val = value();
            if (!val)
                return nullptr;
            out->elems.push_back(std::move(val));
            if (eat(','))
                continue;
            if (eat(']'))
                return out;
            fail("expected ',' or ']' in array");
            return nullptr;
        }
    }

    JsonPtr
    string()
    {
        ++pos_; // '"'
        auto out = std::make_shared<JsonValue>();
        out->kind = JsonValue::Kind::String;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
                return nullptr;
            }
            if (c != '\\') {
                out->text += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out->text += '"'; break;
              case '\\': out->text += '\\'; break;
              case '/': out->text += '/'; break;
              case 'b': out->text += '\b'; break;
              case 'f': out->text += '\f'; break;
              case 'n': out->text += '\n'; break;
              case 'r': out->text += '\r'; break;
              case 't': out->text += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return nullptr;
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else {
                        fail("bad \\u escape digit");
                        return nullptr;
                    }
                }
                // Validation only: fold to a byte, no UTF-8 encoding.
                out->text += static_cast<char>(code & 0xFF);
                break;
              }
              default:
                fail("unknown escape in string");
                return nullptr;
            }
        }
        fail("unterminated string");
        return nullptr;
    }

    JsonPtr
    keyword()
    {
        auto out = std::make_shared<JsonValue>();
        if (literal("true")) {
            out->kind = JsonValue::Kind::Bool;
            out->boolean = true;
            return out;
        }
        if (literal("false")) {
            out->kind = JsonValue::Kind::Bool;
            return out;
        }
        if (literal("null"))
            return out;
        fail("unknown keyword");
        return nullptr;
    }

    JsonPtr
    numberValue()
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        std::string body = text_.substr(start, pos_ - start);
        char *end = nullptr;
        double v = std::strtod(body.c_str(), &end);
        if (end != body.c_str() + body.size() || body.empty()) {
            fail("malformed number");
            return nullptr;
        }
        auto out = std::make_shared<JsonValue>();
        out->kind = JsonValue::Kind::Number;
        out->number = v;
        return out;
    }

    const std::string &text_;
    size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

} // namespace

JsonPtr
parseJson(const std::string &text, std::string *error)
{
    return JsonParser(text).run(error);
}

// ---------------------------------------------------------- schema nodes

const Schema &
buildSchema()
{
    static const Schema node = ordered({
        {"tool", oneOf({"hwdbg"})},
        {"version", string()},
        {"git", string()},
        {"type", string()},
    });
    return node;
}

const Schema &
hexU64Schema()
{
    static const Schema node =
        string([](const JsonValue &value) -> std::string {
            uint64_t parsed;
            if (parseHexU64(value.text, &parsed))
                return "";
            return "expected \"0x\" and 1-16 lowercase hex digits";
        });
    return node;
}

// ---------------------------------------------------------------- engine

namespace
{

const char *const kTypeNames[] = {"null",    "boolean", "number",
                                  "integer", "string",  "array",
                                  "object",  "any value"};

bool
hasType(Schema::Type type, const JsonValue &value)
{
    using T = Schema::Type;
    // Indexed by JsonValue::Kind.
    constexpr T kKindTypes[] = {T::Null,   T::Bool,  T::Number,
                                T::String, T::Array, T::Object};
    return type == T::Any || type == kKindTypes[int(value.kind)] ||
           (type == T::Integer && value.isNumber() &&
            std::floor(value.number) == value.number);
}

std::string
numberText(double value)
{
    return csprintf("%.16g", value);
}

// Errors travel up as "<relative path>: <message>", each level
// prepending its ".key" or "[i]"; checkJson() drops the leading dot.
std::string checkNode(const Schema &node, const JsonValue &value);

std::string
checkObject(const Schema &node, const JsonValue &value)
{
    const auto &decl = node.members;
    size_t last = 0;
    for (size_t i = 0; i < value.members.size(); ++i) {
        const auto &[key, member] = value.members[i];
        size_t at = 0;
        while (at < decl.size() && decl[at].key != key)
            ++at;
        if (at < decl.size()) {
            if (node.ordered && i && at <= last)
                return "." + key + ": out of order";
            last = at;
        } else if (node.ordered) {
            return "." + key + ": unexpected member";
        } else if (node.element) {
            if (std::string err = checkNode(*node.element, *member);
                !err.empty())
                return "." + key + err;
        }
    }
    for (const auto &member : decl) {
        const JsonValue *found = value.get(member.key);
        if (!found && member.required)
            return "." + member.key + ": missing";
        if (!found)
            continue;
        if (std::string err = checkNode(member.node, *found); !err.empty())
            return "." + member.key + err;
    }
    return "";
}

std::string
checkNode(const Schema &node, const JsonValue &value)
{
    if (node.nullable && value.kind == JsonValue::Kind::Null)
        return "";
    if (!hasType(node.type, value))
        return std::string(": expected ") + kTypeNames[int(node.type)] +
               (node.nullable ? " or null" : "");
    switch (node.type) {
      case Schema::Type::Number:
      case Schema::Type::Integer:
        if (node.min == node.max && value.number != node.min)
            return ": expected " + numberText(node.min);
        if (value.number < node.min || value.number > node.max)
            return ": " + numberText(value.number) + " out of range [" +
                   numberText(node.min) + ", " + numberText(node.max) +
                   "]";
        break;
      case Schema::Type::String:
        if (!node.oneOf.empty() &&
            std::find(node.oneOf.begin(), node.oneOf.end(),
                      value.text) == node.oneOf.end()) {
            std::string want;
            for (const auto &allowed : node.oneOf)
                want += (want.empty() ? "\"" : ", \"") + allowed + "\"";
            return (node.oneOf.size() == 1 ? ": expected "
                                           : ": expected one of ") +
                   want;
        }
        break;
      case Schema::Type::Array:
        if (node.element)
            for (size_t i = 0; i < value.elems.size(); ++i)
                if (std::string err =
                        checkNode(*node.element, *value.elems[i]);
                    !err.empty()) {
                    std::string at = "[";
                    at += std::to_string(i);
                    at += ']';
                    return at + err;
                }
        break;
      case Schema::Type::Object:
        if (std::string err = checkObject(node, value); !err.empty())
            return err;
        break;
      default:
        break;
    }
    if (!node.rule)
        return "";
    std::string err = node.rule(value);
    if (err.empty() || err[0] == '.' || err[0] == '[')
        return err;
    return ": " + err;
}

} // namespace

std::string
checkJson(const Schema &schema, const JsonValue &value)
{
    std::string err = checkNode(schema, value);
    if (!err.empty())
        err.erase(0, err[0] == '.' ? 1 : err[0] == ':' ? 2 : 0);
    return err;
}

JsonPtr
parseChecked(const Schema &schema, const std::string &text,
             std::string *error)
{
    JsonPtr root = parseJson(text, error);
    if (root)
        *error = checkJson(schema, *root);
    return error->empty() ? root : nullptr;
}

std::string
checkJson(const Schema &schema, const std::string &text)
{
    std::string error;
    parseChecked(schema, text, &error);
    return error;
}

std::string
checkJsonLines(const Schema &hello, const Schema &response,
               const std::string &text)
{
    int lineno = 0;
    for (size_t start = 0; start < text.size();) {
        size_t end = std::min(text.find('\n', start), text.size());
        ++lineno;
        if (end == start)
            return csprintf("line %d: empty line", lineno);
        std::string error;
        parseChecked(lineno == 1 ? hello : response,
                     text.substr(start, end - start), &error);
        if (!error.empty())
            return csprintf("line %d: %s", lineno, error.c_str());
        start = end + 1;
    }
    return lineno ? "" : "transcript is empty";
}

} // namespace hwdbg::obs
