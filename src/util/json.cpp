#include "util/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace rtp {

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &kv : object) {
        if (kv.first == key)
            return &kv.second;
    }
    return nullptr;
}

double
JsonValue::numberAt(const std::string &key, double fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isNumber() ? v->number : fallback;
}

std::string
JsonValue::stringAt(const std::string &key,
                    const std::string &fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->str : fallback;
}

namespace {

class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {}

    std::optional<JsonValue>
    parse()
    {
        JsonValue root;
        if (!value(root))
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing garbage after document");
            return std::nullopt;
        }
        return root;
    }

  private:
    void
    fail(const char *msg)
    {
        if (error_ && error_->empty())
            *error_ = std::string(msg) + " at byte " +
                      std::to_string(pos_);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            pos_++;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            pos_++;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0) {
            fail("invalid literal");
            return false;
        }
        pos_ += n;
        return true;
    }

    bool
    value(JsonValue &out)
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return false;
        }
        char c = text_[pos_];
        switch (c) {
        case '{': return parseObject(out);
        case '[': return parseArray(out);
        case '"':
            out.type = JsonValue::Type::String;
            return parseString(out.str);
        case 't':
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return literal("true");
        case 'f':
            out.type = JsonValue::Type::Bool;
            out.boolean = false;
            return literal("false");
        case 'n':
            out.type = JsonValue::Type::Null;
            return literal("null");
        default: return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.type = JsonValue::Type::Object;
        pos_++; // '{'
        if (consume('}'))
            return true;
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key");
                return false;
            }
            std::string key;
            if (!parseString(key))
                return false;
            if (!consume(':')) {
                fail("expected ':' after object key");
                return false;
            }
            JsonValue member;
            if (!value(member))
                return false;
            out.object.emplace_back(std::move(key),
                                    std::move(member));
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            fail("expected ',' or '}' in object");
            return false;
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.type = JsonValue::Type::Array;
        pos_++; // '['
        if (consume(']'))
            return true;
        while (true) {
            JsonValue element;
            if (!value(element))
                return false;
            out.array.push_back(std::move(element));
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            fail("expected ',' or ']' in array");
            return false;
        }
    }

    bool
    parseString(std::string &out)
    {
        pos_++; // '"'
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') {
                pos_++;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("raw control character in string");
                return false;
            }
            if (c != '\\') {
                out += c;
                pos_++;
                continue;
            }
            pos_++;
            if (pos_ >= text_.size())
                break;
            char esc = text_[pos_++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return false;
                }
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else {
                        fail("invalid \\u escape digit");
                        return false;
                    }
                }
                // UTF-8 encode the BMP code point (surrogate pairs in
                // trace payloads do not occur; encode halves as-is).
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xC0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (cp >> 12));
                    out += static_cast<char>(0x80 |
                                             ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
            }
            default:
                fail("invalid escape character");
                return false;
            }
        }
        fail("unterminated string");
        return false;
    }

    bool
    parseNumber(JsonValue &out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            pos_++;
        auto digits = [&]() {
            std::size_t n = 0;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(
                       text_[pos_]))) {
                pos_++;
                n++;
            }
            return n;
        };
        if (digits() == 0) {
            fail("invalid number");
            return false;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            pos_++;
            if (digits() == 0) {
                fail("invalid number fraction");
                return false;
            }
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            pos_++;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                pos_++;
            if (digits() == 0) {
                fail("invalid number exponent");
                return false;
            }
        }
        out.type = JsonValue::Type::Number;
        out.number =
            std::strtod(text_.substr(start, pos_ - start).c_str(),
                        nullptr);
        return true;
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

std::optional<JsonValue>
parseJson(const std::string &text, std::string *error)
{
    return Parser(text, error).parse();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace rtp
