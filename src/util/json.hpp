/**
 * @file
 * Minimal recursive-descent JSON parser, plus the string escaper every
 * JSON writer in the project shares.
 *
 * Exists so tools/trace_report and the test suite can validate and
 * summarise the Chrome-trace JSON the TraceSink emits (and the bench
 * JSON sinks) without an external dependency. Full RFC 8259 input
 * grammar; values are held as doubles/strings/vectors, which is ample
 * for trace and stat payloads.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace rtp {

/** One parsed JSON value (a tagged tree). */
struct JsonValue
{
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    //!< Key/value pairs in document order (duplicates preserved).
    std::vector<std::pair<std::string, JsonValue>> object;

    bool
    isObject() const
    {
        return type == Type::Object;
    }

    bool
    isArray() const
    {
        return type == Type::Array;
    }

    bool
    isNumber() const
    {
        return type == Type::Number;
    }

    bool
    isString() const
    {
        return type == Type::String;
    }

    /** @return Member @p key of an object, or nullptr. */
    const JsonValue *find(const std::string &key) const;

    /** @return Member @p key as a number, or @p fallback. */
    double numberAt(const std::string &key, double fallback = 0.0) const;

    /** @return Member @p key as a string, or @p fallback. */
    std::string stringAt(const std::string &key,
                         const std::string &fallback = "") const;
};

/**
 * Parse a complete JSON document (trailing whitespace allowed, trailing
 * garbage rejected).
 * @param text The document.
 * @param error When non-null, receives a byte-offset-tagged message on
 *        failure.
 * @return The root value, or nullopt on malformed input.
 */
std::optional<JsonValue> parseJson(const std::string &text,
                                   std::string *error = nullptr);

/**
 * Escape @p s for embedding in a JSON string literal: `"`, `\`, `\n`,
 * `\t` and `\r` get their short escapes, every other control character
 * becomes `\u00XX`, and all other bytes pass through unchanged.
 */
std::string jsonEscape(const std::string &s);

} // namespace rtp
