/**
 * @file
 * Minimal JSON support for machine-readable reports and config files.
 *
 * Two halves:
 *
 *  - JsonWriter: a streaming emitter of syntactically valid, indented
 *    JSON with correct string escaping and round-trippable doubles. The
 *    writer keeps a nesting stack and inserts commas itself; callers
 *    just interleave key()/value() and begin/end calls. Misuse (a value
 *    where a key is required, unbalanced end calls) is a panic, not
 *    silently broken output.
 *
 *  - JsonValue + parseJson(): a parsed document tree, used by the
 *    config layer to load configuration files and by tests to compare
 *    reports structurally. Integers and doubles are kept apart so that
 *    serialize -> parse -> re-serialize round trips byte-identically;
 *    object members preserve insertion order. Parse errors are fatal()
 *    with a line:column position (config files are user input).
 */

#ifndef P5SIM_COMMON_JSON_HH
#define P5SIM_COMMON_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace p5 {

/**
 * Streaming JSON emitter. A negative @c indentWidth selects compact
 * mode: no newlines or indentation anywhere (single-line documents for
 * line-oriented protocols like `p5sim serve`).
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os, int indentWidth = 2);

    /**
     * All containers must be closed by the time this runs, unless an
     * exception is unwinding through the document.
     */
    ~JsonWriter();

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be inside an object. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(bool v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter &value(unsigned v)
    {
        return value(static_cast<std::uint64_t>(v));
    }
    JsonWriter &null();

    /** Emit @p token, a rendered JSON number or true/false, verbatim. */
    JsonWriter &literal(std::string_view token);

    /** key(name) followed by value(v). */
    template <typename T>
    JsonWriter &
    member(std::string_view name, T &&v)
    {
        key(name);
        return value(std::forward<T>(v));
    }

    /** Escape @p s per RFC 8259 (without surrounding quotes). */
    static std::string escape(std::string_view s);

  private:
    enum class Scope { Object, Array };

    void prepareValue(); ///< comma/indent bookkeeping before a value
    void newline();
    void raw(std::string_view text);

    std::ostream &os_;
    int indentWidth_;
    std::vector<Scope> stack_;
    bool firstInScope_ = true;
    bool keyPending_ = false;
    bool rootWritten_ = false;
};

/**
 * Render @p v with the fewest significant digits that parse back to
 * exactly @p v (tries %.15g, %.16g, %.17g). Non-finite values render as
 * "null" would in JSON; callers that need a number must not pass them.
 */
std::string formatDouble(double v);

/** A parsed JSON document node. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Int, Double, String, Array, Object };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default; ///< Null

    static JsonValue makeNull() { return JsonValue(); }
    static JsonValue makeBool(bool v);
    static JsonValue makeInt(std::int64_t v);
    /** @p wide_token: the source of an integer too wide for int64. */
    static JsonValue makeDouble(double v, std::string wide_token = {});
    static JsonValue makeString(std::string v);
    static JsonValue makeArray();
    static JsonValue makeObject();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isInt() const { return kind_ == Kind::Int; }
    bool isDouble() const { return kind_ == Kind::Double; }
    bool isNumber() const { return isInt() || isDouble(); }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; fatal() on kind mismatch. */
    bool asBool() const;
    std::int64_t asInt() const;       ///< Int only
    std::uint64_t asUint() const;     ///< non-negative Int only
    double asDouble() const;          ///< Int or Double
    const std::string &asString() const;

    /**
     * A number as text that parses back to it exactly: the source
     * token of an integer too wide for int64 (parsed as a Double, so
     * no digit is lost), else the value rendered. fatal() unless
     * isNumber().
     */
    std::string numberText() const;

    /** An integer token, including one too wide for int64. */
    bool isIntegral() const
    {
        return isInt() || (isDouble() && !string_.empty());
    }

    /** Array elements; fatal() unless isArray(). */
    const std::vector<JsonValue> &elements() const;
    std::vector<JsonValue> &elements();

    /** Object members in insertion order; fatal() unless isObject(). */
    const std::vector<Member> &members() const;

    /** Member lookup; nullptr when absent. fatal() unless isObject(). */
    const JsonValue *find(std::string_view name) const;

    /** Member lookup; fatal() when absent or unless isObject(). */
    const JsonValue &at(std::string_view name) const;

    /** Append to an array; fatal() unless isArray(). */
    void append(JsonValue v);

    /** Add/replace an object member; fatal() unless isObject(). */
    void setMember(std::string name, JsonValue v);

    /** Re-emit this node through @p w (at the writer's position). */
    void write(JsonWriter &w) const;

    /** Serialize as a complete document (trailing newline included). */
    std::string dump(int indent_width = 2) const;

    /** Structural equality (Int(3) != Double(3.0) by design). */
    bool operator==(const JsonValue &other) const;
    bool operator!=(const JsonValue &other) const
    {
        return !(*this == other);
    }

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<JsonValue> elements_;
    std::vector<Member> members_;
};

/**
 * Parse a complete JSON document. @p where names the source (file name)
 * in error messages; any syntax error is fatal().
 */
JsonValue parseJson(std::string_view text, const std::string &where = "");

/** Read and parse @p path; fatal() when unreadable or malformed. */
JsonValue parseJsonFile(const std::string &path);

/**
 * parseJson() as a bool: false on malformed input with the
 * position-annotated message in @p error; @p out is unspecified on
 * failure.
 */
bool tryParseJson(std::string_view text, JsonValue &out,
                  std::string *error = nullptr,
                  const std::string &where = "");

} // namespace p5

#endif // P5SIM_COMMON_JSON_HH
