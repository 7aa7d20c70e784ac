/**
 * @file
 * A minimal recursive-descent JSON parser shared by the standalone
 * validation tools (trace_lint, stats_lint, bench_diff): just enough
 * to read the simulator's own JSON output without external
 * dependencies.
 * Numbers are doubles; `null` is a first-class kind because the
 * exporters emit it for non-finite values. `\uXXXX` escapes decode
 * to UTF-8.
 */

#ifndef TT_TOOLS_JSON_MINI_HH
#define TT_TOOLS_JSON_MINI_HH

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace jmini
{

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    const JsonValue* find(const std::string& key) const
    {
        for (const auto& [k, v] : fields)
            if (k == key)
                return &v;
        return nullptr;
    }

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    /// Number or null — the exporters write null for non-finite.
    bool isNumberOrNull() const
    {
        return kind == Kind::Number || kind == Kind::Null;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : _s(text) {}

    bool parse(JsonValue& out, std::string& err)
    {
        skipWs();
        if (!value(out, err))
            return false;
        skipWs();
        if (_pos != _s.size()) {
            err = at("trailing data after top-level value");
            return false;
        }
        return true;
    }

  private:
    std::string at(const std::string& msg) const
    {
        std::size_t line = 1;
        for (std::size_t i = 0; i < _pos && i < _s.size(); ++i)
            line += _s[i] == '\n';
        std::ostringstream os;
        os << msg << " (line " << line << ")";
        return os.str();
    }

    void skipWs()
    {
        while (_pos < _s.size() &&
               std::isspace(static_cast<unsigned char>(_s[_pos])))
            ++_pos;
    }

    bool value(JsonValue& out, std::string& err)
    {
        if (_pos >= _s.size()) {
            err = at("unexpected end of input");
            return false;
        }
        const char c = _s[_pos];
        if (c == '{')
            return object(out, err);
        if (c == '[')
            return array(out, err);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return string(out.str, err);
        }
        if (c == 't' || c == 'f')
            return boolean(out, err);
        if (c == 'n')
            return literal("null", err) &&
                   (out.kind = JsonValue::Kind::Null, true);
        return number(out, err);
    }

    bool literal(const char* word, std::string& err)
    {
        const std::size_t n = std::string(word).size();
        if (_s.compare(_pos, n, word) != 0) {
            err = at(std::string("expected '") + word + "'");
            return false;
        }
        _pos += n;
        return true;
    }

    bool boolean(JsonValue& out, std::string& err)
    {
        out.kind = JsonValue::Kind::Bool;
        if (_s[_pos] == 't') {
            out.boolean = true;
            return literal("true", err);
        }
        out.boolean = false;
        return literal("false", err);
    }

    bool number(JsonValue& out, std::string& err)
    {
        const std::size_t start = _pos;
        if (_pos < _s.size() && (_s[_pos] == '-' || _s[_pos] == '+'))
            ++_pos;
        bool digits = false;
        while (_pos < _s.size() &&
               (std::isdigit(static_cast<unsigned char>(_s[_pos])) ||
                _s[_pos] == '.' || _s[_pos] == 'e' ||
                _s[_pos] == 'E' || _s[_pos] == '-' ||
                _s[_pos] == '+')) {
            digits |=
                std::isdigit(static_cast<unsigned char>(_s[_pos]));
            ++_pos;
        }
        if (!digits) {
            err = at("expected a number");
            return false;
        }
        out.kind = JsonValue::Kind::Number;
        out.number = std::strtod(_s.c_str() + start, nullptr);
        return true;
    }

    bool string(std::string& out, std::string& err)
    {
        if (_s[_pos] != '"') {
            err = at("expected '\"'");
            return false;
        }
        ++_pos;
        out.clear();
        while (_pos < _s.size() && _s[_pos] != '"') {
            char c = _s[_pos++];
            if (c == '\\') {
                if (_pos >= _s.size()) {
                    err = at("unterminated escape");
                    return false;
                }
                const char e = _s[_pos++];
                switch (e) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case '/': c = '/'; break;
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'u':
                    // The exporters write control bytes as \u00XX;
                    // decode any \uXXXX (or surrogate pair) to UTF-8.
                    if (!unicodeEscape(out, err))
                        return false;
                    continue;
                  default:
                    err = at("bad escape character");
                    return false;
                }
            }
            out += c;
        }
        if (_pos >= _s.size()) {
            err = at("unterminated string");
            return false;
        }
        ++_pos; // closing quote
        return true;
    }

    bool hex4(unsigned& cp, std::string& err)
    {
        for (std::size_t i = _pos; i < _pos + 4; ++i) {
            if (i >= _s.size() ||
                !std::isxdigit(static_cast<unsigned char>(_s[i]))) {
                err = at("bad \\u escape");
                return false;
            }
        }
        cp = static_cast<unsigned>(
            std::stoul(_s.substr(_pos, 4), nullptr, 16));
        _pos += 4;
        return true;
    }

    /** The rest of a \u escape (after "\u"), appended as UTF-8. */
    bool unicodeEscape(std::string& out, std::string& err)
    {
        unsigned cp = 0;
        if (!hex4(cp, err))
            return false;
        if (cp >= 0xD800 && cp < 0xDC00 &&
            _s.compare(_pos, 2, "\\u") == 0) {
            const std::size_t save = _pos;
            _pos += 2;
            unsigned lo = 0;
            if (!hex4(lo, err))
                return false;
            if (lo >= 0xDC00 && lo < 0xE000)
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            else
                _pos = save; // not a pair: decode the two separately
        }
        // UTF-8: a lead byte tagged with the length, then `tail`
        // 6-bit continuation bytes.
        int tail = 0;
        for (const unsigned limit : {0x80u, 0x800u, 0x10000u})
            tail += cp >= limit;
        const unsigned lead[] = {0x00, 0xC0, 0xE0, 0xF0};
        out += static_cast<char>(lead[tail] | (cp >> (6 * tail)));
        for (int i = tail - 1; i >= 0; --i)
            out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
        return true;
    }

    bool array(JsonValue& out, std::string& err)
    {
        out.kind = JsonValue::Kind::Array;
        ++_pos; // '['
        skipWs();
        if (_pos < _s.size() && _s[_pos] == ']') {
            ++_pos;
            return true;
        }
        while (true) {
            JsonValue item;
            if (!value(item, err))
                return false;
            out.items.push_back(std::move(item));
            skipWs();
            if (_pos >= _s.size()) {
                err = at("unterminated array");
                return false;
            }
            if (_s[_pos] == ',') {
                ++_pos;
                skipWs();
                continue;
            }
            if (_s[_pos] == ']') {
                ++_pos;
                return true;
            }
            err = at("expected ',' or ']'");
            return false;
        }
    }

    bool object(JsonValue& out, std::string& err)
    {
        out.kind = JsonValue::Kind::Object;
        ++_pos; // '{'
        skipWs();
        if (_pos < _s.size() && _s[_pos] == '}') {
            ++_pos;
            return true;
        }
        while (true) {
            std::string key;
            if (!string(key, err))
                return false;
            skipWs();
            if (_pos >= _s.size() || _s[_pos] != ':') {
                err = at("expected ':'");
                return false;
            }
            ++_pos;
            skipWs();
            JsonValue v;
            if (!value(v, err))
                return false;
            out.fields.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (_pos >= _s.size()) {
                err = at("unterminated object");
                return false;
            }
            if (_s[_pos] == ',') {
                ++_pos;
                skipWs();
                continue;
            }
            if (_s[_pos] == '}') {
                ++_pos;
                return true;
            }
            err = at("expected ',' or '}'");
            return false;
        }
    }

    const std::string& _s;
    std::size_t _pos = 0;
};

/**
 * Read and parse the JSON file at @p path into @p out. Returns 0, or
 * 2 after "<tool>: cannot open <path>" or 1 after "<path>: JSON parse
 * error: ..." on stderr.
 */
inline int
parseFile(const char* tool, const char* path, JsonValue& out)
{
    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr, "%s: cannot open %s\n", tool, path);
        return 2;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    const std::string text = buf.str();
    std::string err;
    if (!JsonParser(text).parse(out, err)) {
        std::fprintf(stderr, "%s: JSON parse error: %s\n", path,
                     err.c_str());
        return 1;
    }
    return 0;
}

} // namespace jmini

#endif // TT_TOOLS_JSON_MINI_HH
