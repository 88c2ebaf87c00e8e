#include "common/json.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "common/parse.hh"

namespace p5 {

JsonWriter::JsonWriter(std::ostream &os, int indentWidth)
    : os_(os), indentWidth_(indentWidth)
{}

JsonWriter::~JsonWriter()
{
    if (!stack_.empty())
        panic("JsonWriter destroyed with %zu open scopes", stack_.size());
    if (indentWidth_ >= 0)
        os_ << '\n';
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::newline()
{
    if (indentWidth_ < 0)
        return;
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i)
        for (int s = 0; s < indentWidth_; ++s)
            os_ << ' ';
}

void
JsonWriter::prepareValue()
{
    if (stack_.empty()) {
        if (rootWritten_)
            panic("JsonWriter: second root value");
        rootWritten_ = true;
        return;
    }
    if (stack_.back() == Scope::Object) {
        if (!keyPending_)
            panic("JsonWriter: value in object without a key");
        keyPending_ = false;
        return;
    }
    if (!firstInScope_)
        os_ << ',';
    firstInScope_ = false;
    newline();
}

void
JsonWriter::raw(std::string_view text)
{
    os_ << text;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    if (stack_.empty() || stack_.back() != Scope::Object)
        panic("JsonWriter: key() outside an object");
    if (keyPending_)
        panic("JsonWriter: key() twice without a value");
    if (!firstInScope_)
        os_ << ',';
    firstInScope_ = false;
    newline();
    os_ << '"' << escape(name) << "\": ";
    keyPending_ = true;
    return *this;
}

JsonWriter &
JsonWriter::beginObject()
{
    prepareValue();
    os_ << '{';
    stack_.push_back(Scope::Object);
    firstInScope_ = true;
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back() != Scope::Object || keyPending_)
        panic("JsonWriter: mismatched endObject()");
    const bool empty = firstInScope_;
    stack_.pop_back();
    if (!empty)
        newline();
    os_ << '}';
    firstInScope_ = false;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    prepareValue();
    os_ << '[';
    stack_.push_back(Scope::Array);
    firstInScope_ = true;
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (stack_.empty() || stack_.back() != Scope::Array)
        panic("JsonWriter: mismatched endArray()");
    const bool empty = firstInScope_;
    stack_.pop_back();
    if (!empty)
        newline();
    os_ << ']';
    firstInScope_ = false;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    prepareValue();
    os_ << '"' << escape(v) << '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string_view(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    prepareValue();
    if (!std::isfinite(v)) {
        os_ << "null"; // JSON has no NaN/Inf
        return *this;
    }
    os_ << formatDouble(v);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    prepareValue();
    os_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    prepareValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    prepareValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    prepareValue();
    os_ << "null";
    return *this;
}

JsonWriter &
JsonWriter::literal(std::string_view token)
{
    prepareValue();
    os_ << token;
    return *this;
}

std::string
formatDouble(double v)
{
    char buf[40];
    for (int precision : {15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

// --- JsonValue ---------------------------------------------------------

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue out;
    out.kind_ = Kind::Bool;
    out.bool_ = v;
    return out;
}

JsonValue
JsonValue::makeInt(std::int64_t v)
{
    JsonValue out;
    out.kind_ = Kind::Int;
    out.int_ = v;
    return out;
}

JsonValue
JsonValue::makeDouble(double v, std::string wide_token)
{
    JsonValue out;
    out.kind_ = Kind::Double;
    out.double_ = v;
    out.string_ = std::move(wide_token);
    return out;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue out;
    out.kind_ = Kind::String;
    out.string_ = std::move(v);
    return out;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue out;
    out.kind_ = Kind::Array;
    return out;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue out;
    out.kind_ = Kind::Object;
    return out;
}

namespace {

const char *
jsonKindName(JsonValue::Kind kind)
{
    switch (kind) {
      case JsonValue::Kind::Null:
        return "null";
      case JsonValue::Kind::Bool:
        return "bool";
      case JsonValue::Kind::Int:
        return "integer";
      case JsonValue::Kind::Double:
        return "double";
      case JsonValue::Kind::String:
        return "string";
      case JsonValue::Kind::Array:
        return "array";
      case JsonValue::Kind::Object:
        return "object";
    }
    return "?";
}

} // namespace

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        fatal("JSON value is %s, expected bool", jsonKindName(kind_));
    return bool_;
}

std::int64_t
JsonValue::asInt() const
{
    if (kind_ != Kind::Int)
        fatal("JSON value is %s, expected integer", jsonKindName(kind_));
    return int_;
}

double
JsonValue::asDouble() const
{
    if (kind_ == Kind::Int)
        return static_cast<double>(int_);
    if (kind_ != Kind::Double)
        fatal("JSON value is %s, expected number", jsonKindName(kind_));
    return double_;
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        fatal("JSON value is %s, expected string", jsonKindName(kind_));
    return string_;
}

std::string
JsonValue::numberText() const
{
    if (kind_ == Kind::Int)
        return std::to_string(int_);
    if (kind_ != Kind::Double)
        fatal("JSON value is %s, expected number", jsonKindName(kind_));
    return string_.empty() ? formatDouble(double_) : string_;
}

const std::vector<JsonValue> &
JsonValue::elements() const
{
    if (kind_ != Kind::Array)
        fatal("JSON value is %s, expected array", jsonKindName(kind_));
    return elements_;
}

std::vector<JsonValue> &
JsonValue::elements()
{
    if (kind_ != Kind::Array)
        fatal("JSON value is %s, expected array", jsonKindName(kind_));
    return elements_;
}

const std::vector<JsonValue::Member> &
JsonValue::members() const
{
    if (kind_ != Kind::Object)
        fatal("JSON value is %s, expected object", jsonKindName(kind_));
    return members_;
}

const JsonValue *
JsonValue::find(std::string_view name) const
{
    for (const Member &m : members())
        if (m.first == name)
            return &m.second;
    return nullptr;
}

void
JsonValue::append(JsonValue v)
{
    if (kind_ != Kind::Array)
        fatal("JSON append on %s, expected array", jsonKindName(kind_));
    elements_.push_back(std::move(v));
}

void
JsonValue::setMember(std::string name, JsonValue v)
{
    if (kind_ != Kind::Object)
        fatal("JSON setMember on %s, expected object",
              jsonKindName(kind_));
    for (Member &m : members_) {
        if (m.first == name) {
            m.second = std::move(v);
            return;
        }
    }
    members_.emplace_back(std::move(name), std::move(v));
}

void
JsonValue::write(JsonWriter &w) const
{
    switch (kind_) {
      case Kind::Null:
        w.null();
        break;
      case Kind::Bool:
        w.value(bool_);
        break;
      case Kind::Int:
        w.value(int_);
        break;
      case Kind::Double:
        w.value(double_);
        break;
      case Kind::String:
        w.value(string_);
        break;
      case Kind::Array:
        w.beginArray();
        for (const JsonValue &v : elements_)
            v.write(w);
        w.endArray();
        break;
      case Kind::Object:
        w.beginObject();
        for (const Member &m : members_) {
            w.key(m.first);
            m.second.write(w);
        }
        w.endObject();
        break;
    }
}

std::string
JsonValue::dump(int indent_width) const
{
    std::ostringstream os;
    {
        JsonWriter w(os, indent_width);
        write(w);
    }
    return os.str();
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return bool_ == other.bool_;
      case Kind::Int:
        return int_ == other.int_;
      case Kind::Double:
        return double_ == other.double_;
      case Kind::String:
        return string_ == other.string_;
      case Kind::Array:
        return elements_ == other.elements_;
      case Kind::Object:
        return members_ == other.members_;
    }
    return false;
}

// --- parser ------------------------------------------------------------

namespace {

/** Internal: carries a parse error to the fatal/non-fatal front-ends. */
struct JsonParseError
{
    std::string message;
};

/**
 * Recursive-descent JSON parser; every error throws JsonParseError with
 * a line:column position (parseJson() turns that into fatal()).
 */
class JsonParser
{
  public:
    JsonParser(std::string_view text, const std::string &where)
        : text_(text), where_(where)
    {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            error("trailing content after the JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    error(const char *what)
    {
        std::size_t line = 1;
        std::size_t col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        char buf[512];
        std::snprintf(buf, sizeof(buf), "%s:%zu:%zu: %s",
                      where_.empty() ? "<json>" : where_.c_str(), line,
                      col, what);
        throw JsonParseError{buf};
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            error("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c, const char *what)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            error(what);
        ++pos_;
    }

    bool
    consumeLiteral(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        switch (peek()) {
          case '{':
          case '[': {
            // Bounded so hostile input cannot exhaust the stack; nothing
            // p5sim writes nests deeper than a handful of levels.
            if (++depth_ > max_depth)
                error("nesting deeper than 512 levels");
            JsonValue v = peek() == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
          }
          case '"':
            return JsonValue::makeString(parseString());
          case 't':
            if (consumeLiteral("true"))
                return JsonValue::makeBool(true);
            error("invalid literal");
          case 'f':
            if (consumeLiteral("false"))
                return JsonValue::makeBool(false);
            error("invalid literal");
          case 'n':
            if (consumeLiteral("null"))
                return JsonValue::makeNull();
            error("invalid literal");
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        expect('{', "expected '{'");
        JsonValue obj = JsonValue::makeObject();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skipWs();
            if (peek() != '"')
                error("expected a string object key");
            std::string name = parseString();
            skipWs();
            expect(':', "expected ':' after object key");
            if (obj.find(name) != nullptr)
                error("duplicate object key");
            obj.setMember(std::move(name), parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}', "expected ',' or '}' in object");
            return obj;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[', "expected '['");
        JsonValue arr = JsonValue::makeArray();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.append(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']', "expected ',' or ']' in array");
            return arr;
        }
    }

    std::string
    parseString()
    {
        expect('"', "expected '\"'");
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                error("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                error("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                error("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    error("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        error("invalid \\u escape digit");
                }
                // UTF-8 encode the BMP code point (the writer only
                // ever emits \u00xx control escapes; surrogate pairs
                // are out of scope for config/report files).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                error("unknown escape character");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        bool integral = true;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start || (text_[start] == '-' && pos_ == start + 1))
            error("invalid number");
        const std::string token(text_.substr(start, pos_ - start));
        // JSON forbids leading zeros ("010"); parseInt64 would read
        // them as octal, silently changing the value, so reject them
        // here before delegating.
        const std::size_t digit0 =
            start + (text_[start] == '-' ? 1 : 0);
        if (integral && text_[digit0] == '0' && pos_ > digit0 + 1) {
            pos_ = start;
            badNumber(token);
        }
        if (integral) {
            std::int64_t v = 0;
            const ParseStatus st = parseInt64(token, v);
            if (st == ParseStatus::Ok)
                return JsonValue::makeInt(v);
            if (st != ParseStatus::OutOfRange) {
                pos_ = start;
                badNumber(token);
            }
            // Out-of-range integers fall through to double, keeping
            // their digits for numberText().
        }
        double v = 0.0;
        if (parseFloat64(token, v) != ParseStatus::Ok) {
            pos_ = start;
            badNumber(token);
        }
        return JsonValue::makeDouble(v, integral ? token : std::string());
    }

    [[noreturn]] void
    badNumber(const std::string &token)
    {
        char what[128];
        std::snprintf(what, sizeof(what), "invalid number '%.80s'",
                      token.c_str());
        error(what);
    }

    static constexpr int max_depth = 512;

    std::string_view text_;
    std::string where_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

JsonValue
parseJson(std::string_view text, const std::string &where)
{
    try {
        return JsonParser(text, where).parseDocument();
    } catch (const JsonParseError &e) {
        fatal("%s", e.message.c_str());
    }
}

bool
tryParseJson(std::string_view text, JsonValue &out, std::string *error,
             const std::string &where)
{
    try {
        out = JsonParser(text, where).parseDocument();
        return true;
    } catch (const JsonParseError &e) {
        if (error)
            *error = e.message;
        return false;
    }
}

JsonValue
parseJsonFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot read JSON file '%s'", path.c_str());
    std::ostringstream buf;
    buf << is.rdbuf();
    return parseJson(buf.str(), path);
}

} // namespace p5
