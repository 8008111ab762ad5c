#include "obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace smq::obs {

namespace {

class Parser
{
  public:
    explicit Parser(std::string_view src) : src_(src) {}

    JsonValue document()
    {
        JsonValue v = value();
        skipWhitespace();
        if (pos_ != src_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &what)
    {
        throw std::runtime_error("json: " + what + " at byte " +
                                 std::to_string(pos_));
    }

    void skipWhitespace()
    {
        while (pos_ < src_.size() &&
               (src_[pos_] == ' ' || src_[pos_] == '\t' ||
                src_[pos_] == '\n' || src_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= src_.size())
            fail("unexpected end of input");
        return src_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consumeLiteral(std::string_view lit)
    {
        if (src_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    JsonValue value()
    {
        skipWhitespace();
        char c = peek();
        switch (c) {
          case '{': return objectValue();
          case '[': return arrayValue();
          case '"': return stringValue();
          case 't':
          case 'f': return boolValue();
          case 'n': return nullValue();
          default: return numberValue();
        }
    }

    JsonValue objectValue()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWhitespace();
            JsonValue key = stringValue();
            skipWhitespace();
            expect(':');
            v.object.emplace_back(std::move(key.text), value());
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue arrayValue()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(value());
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue stringValue()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        expect('"');
        for (;;) {
            if (pos_ >= src_.size())
                fail("unterminated string");
            char c = src_[pos_++];
            if (c == '"')
                return v;
            if (c != '\\') {
                v.text += c;
                continue;
            }
            if (pos_ >= src_.size())
                fail("dangling escape");
            char esc = src_[pos_++];
            switch (esc) {
              case '"': v.text += '"'; break;
              case '\\': v.text += '\\'; break;
              case '/': v.text += '/'; break;
              case 'b': v.text += '\b'; break;
              case 'f': v.text += '\f'; break;
              case 'n': v.text += '\n'; break;
              case 'r': v.text += '\r'; break;
              case 't': v.text += '\t'; break;
              case 'u': {
                  if (pos_ + 4 > src_.size())
                      fail("truncated \\u escape");
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      char h = src_[pos_++];
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code += static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code += static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          code += static_cast<unsigned>(h - 'A' + 10);
                      else
                          fail("bad \\u escape digit");
                  }
                  // Our writers only escape control chars; encode the
                  // code point as UTF-8 without surrogate handling.
                  if (code < 0x80) {
                      v.text += static_cast<char>(code);
                  } else if (code < 0x800) {
                      v.text += static_cast<char>(0xC0 | (code >> 6));
                      v.text +=
                          static_cast<char>(0x80 | (code & 0x3F));
                  } else {
                      v.text += static_cast<char>(0xE0 | (code >> 12));
                      v.text += static_cast<char>(
                          0x80 | ((code >> 6) & 0x3F));
                      v.text +=
                          static_cast<char>(0x80 | (code & 0x3F));
                  }
                  break;
              }
              default: fail("unknown escape");
            }
        }
    }

    JsonValue boolValue()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (consumeLiteral("true"))
            v.boolean = true;
        else if (consumeLiteral("false"))
            v.boolean = false;
        else
            fail("bad literal");
        return v;
    }

    JsonValue nullValue()
    {
        if (!consumeLiteral("null"))
            fail("bad literal");
        return JsonValue{};
    }

    JsonValue numberValue()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        std::size_t start = pos_;
        if (pos_ < src_.size() && src_[pos_] == '-')
            ++pos_;
        bool digits = false;
        auto eatDigits = [&] {
            while (pos_ < src_.size() &&
                   std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
                ++pos_;
                digits = true;
            }
        };
        eatDigits();
        if (pos_ < src_.size() && src_[pos_] == '.') {
            ++pos_;
            eatDigits();
        }
        if (pos_ < src_.size() &&
            (src_[pos_] == 'e' || src_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < src_.size() &&
                (src_[pos_] == '+' || src_[pos_] == '-'))
                ++pos_;
            eatDigits();
        }
        if (!digits)
            fail("malformed number");
        v.text = std::string(src_.substr(start, pos_ - start));
        return v;
    }

    std::string_view src_;
    std::size_t pos_ = 0;
};

} // namespace

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(std::string_view key) const
{
    const JsonValue *v = find(key);
    if (!v)
        throw std::runtime_error("json: missing required field '" +
                                 std::string(key) + "'");
    return *v;
}

bool
JsonValue::asBool() const
{
    if (kind != Kind::Bool)
        throw std::runtime_error("json: not a bool");
    return boolean;
}

double
JsonValue::asDouble() const
{
    if (kind != Kind::Number)
        throw std::runtime_error("json: not a number");
    return std::strtod(text.c_str(), nullptr);
}

std::uint64_t
JsonValue::asU64() const
{
    if (kind != Kind::Number)
        throw std::runtime_error("json: not a number");
    return std::strtoull(text.c_str(), nullptr, 10);
}

const std::string &
JsonValue::asString() const
{
    if (kind != Kind::String)
        throw std::runtime_error("json: not a string");
    return text;
}

JsonValue
parseJson(std::string_view source)
{
    return Parser(source).document();
}

std::string
escapeJson(std::string_view raw)
{
    std::string out;
    out.reserve(raw.size() + 8);
    for (char c : raw) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
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
writeJsonNumber(std::ostream &out, double value)
{
    std::ostringstream text;
    text.precision(17);
    text << value;
    std::string s = text.str();
    if (s.find("inf") != std::string::npos ||
        s.find("nan") != std::string::npos)
        s = "0";
    out << s;
}

} // namespace smq::obs
