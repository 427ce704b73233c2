#include "flatjson.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace hetsim::json
{

namespace
{

/** Cursor over one line; see the header for the accepted grammar. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    std::optional<Object>
    parse(std::string &error)
    {
        Object object;
        skipSpace();
        if (!eat('{')) {
            error = "expected '{'";
            return std::nullopt;
        }
        skipSpace();
        if (eat('}'))
            return finish(object, error);
        while (true) {
            skipSpace();
            std::string key;
            if (!parseString(key, error))
                return std::nullopt;
            skipSpace();
            if (!eat(':')) {
                error = "expected ':' after key \"" + key + "\"";
                return std::nullopt;
            }
            skipSpace();
            Value value;
            if (!parseValue(value, key, error))
                return std::nullopt;
            if (!object.emplace(key, std::move(value)).second) {
                error = "duplicate key \"" + key + "\"";
                return std::nullopt;
            }
            skipSpace();
            if (eat(','))
                continue;
            if (eat('}'))
                return finish(object, error);
            error = "expected ',' or '}' after value of \"" + key + "\"";
            return std::nullopt;
        }
    }

  private:
    std::optional<Object>
    finish(Object &object, std::string &error)
    {
        skipSpace();
        if (pos != s.size()) {
            error = "trailing characters after object";
            return std::nullopt;
        }
        return std::move(object);
    }

    void
    skipSpace()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    bool
    eat(char c)
    {
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    parseString(std::string &out, std::string &error)
    {
        if (!eat('"')) {
            error = "expected '\"'";
            return false;
        }
        out.clear();
        while (pos < s.size()) {
            char c = s[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= s.size())
                    break;
                char esc = s[pos++];
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  default:
                    error = std::string("unsupported escape '\\") +
                            esc + "'";
                    return false;
                }
            } else {
                out += c;
            }
        }
        error = "unterminated string";
        return false;
    }

    bool
    parseValue(Value &value, const std::string &key, std::string &error)
    {
        if (pos >= s.size()) {
            error = "missing value for \"" + key + "\"";
            return false;
        }
        char c = s[pos];
        if (c == '"') {
            value.kind = Value::Kind::String;
            return parseString(value.text, error);
        }
        if (s.compare(pos, 4, "true") == 0) {
            value.kind = Value::Kind::Boolean;
            value.boolean = true;
            pos += 4;
            return true;
        }
        if (s.compare(pos, 5, "false") == 0) {
            value.kind = Value::Kind::Boolean;
            value.boolean = false;
            pos += 5;
            return true;
        }
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
            size_t start = pos;
            while (pos < s.size() &&
                   (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                    s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
                    s[pos] == 'e' || s[pos] == 'E'))
                ++pos;
            value.kind = Value::Kind::Number;
            value.text = s.substr(start, pos - start);
            char *end = nullptr;
            errno = 0;
            value.number = std::strtod(value.text.c_str(), &end);
            if (end != value.text.c_str() + value.text.size()) {
                error = "malformed number '" + value.text + "' for \"" +
                        key + "\"";
                return false;
            }
            // Overflow to +/-inf is a loud error; underflow to a
            // denormal or zero (ERANGE with a tiny result) is accepted
            // as the nearest representable value.
            if (errno == ERANGE &&
                std::fabs(value.number) == HUGE_VAL) {
                error = "number out of range '" + value.text +
                        "' for \"" + key + "\"";
                return false;
            }
            return true;
        }
        error = "unsupported value for \"" + key +
                "\" (want string, number, or boolean)";
        return false;
    }

    const std::string &s;
    size_t pos = 0;
};

} // namespace

std::optional<Object>
parseFlatObject(const std::string &line, std::string &error)
{
    return Parser(line).parse(error);
}

std::optional<u64>
parseU64(const std::string &text)
{
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return std::nullopt;
    return static_cast<u64>(v);
}

std::optional<long>
parseLong(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return std::nullopt;
    return v;
}

namespace
{

/** strtod over all of @p text; nullopt when empty or on junk. */
std::optional<double>
parseReal(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        return std::nullopt;
    return v;
}

} // namespace

std::optional<double>
parsePositive(const std::string &text)
{
    const auto v = parseReal(text);
    if (!v || !std::isfinite(*v) || *v <= 0.0)
        return std::nullopt;
    return v;
}

std::optional<double>
parseFraction(const std::string &text)
{
    const auto v = parseReal(text);
    if (!v || !std::isfinite(*v) || *v < 0.0 || *v > 1.0)
        return std::nullopt;
    return v;
}

std::optional<std::pair<double, double>>
parseCoreMem(const std::string &text)
{
    const size_t colon = text.find(':');
    if (colon == std::string::npos)
        return std::nullopt;
    const auto core = parsePositive(text.substr(0, colon));
    const auto mem = parsePositive(text.substr(colon + 1));
    if (!core || !mem)
        return std::nullopt;
    return std::make_pair(*core, *mem);
}

} // namespace hetsim::json
