#include "common/config.hh"

#include <cstdlib>
#include <sstream>

#include "common/logging.hh"

namespace carf
{

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::setU64(const std::string &key, u64 value)
{
    values_[key] = std::to_string(value);
}

void
Config::setDouble(const std::string &key, double value)
{
    std::ostringstream os;
    os << value;
    values_[key] = os.str();
}

void
Config::setBool(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
}

const std::string *
Config::find(const std::string &key) const
{
    read_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

bool
Config::has(const std::string &key) const
{
    return find(key) != nullptr;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    const std::string *value = find(key);
    return value ? *value : def;
}

u64
Config::getU64(const std::string &key, u64 def) const
{
    const std::string *value = find(key);
    if (!value)
        return def;
    char *end = nullptr;
    u64 v = std::strtoull(value->c_str(), &end, 0);
    if (end == value->c_str() || *end != '\0')
        fatal("config %s: '%s' is not an unsigned integer",
              key.c_str(), value->c_str());
    return v;
}

i64
Config::getI64(const std::string &key, i64 def) const
{
    const std::string *value = find(key);
    if (!value)
        return def;
    char *end = nullptr;
    i64 v = std::strtoll(value->c_str(), &end, 0);
    if (end == value->c_str() || *end != '\0')
        fatal("config %s: '%s' is not an integer",
              key.c_str(), value->c_str());
    return v;
}

double
Config::getDouble(const std::string &key, double def) const
{
    const std::string *value = find(key);
    if (!value)
        return def;
    char *end = nullptr;
    double v = std::strtod(value->c_str(), &end);
    if (end == value->c_str() || *end != '\0')
        fatal("config %s: '%s' is not a number",
              key.c_str(), value->c_str());
    return v;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    const std::string *value = find(key);
    if (!value)
        return def;
    const std::string &s = *value;
    if (s == "true" || s == "1" || s == "yes" || s == "on")
        return true;
    if (s == "false" || s == "0" || s == "no" || s == "off")
        return false;
    fatal("config %s: '%s' is not a boolean", key.c_str(), s.c_str());
}

bool
Config::parseToken(const std::string &token)
{
    auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    set(token.substr(0, eq), token.substr(eq + 1));
    return true;
}

void
Config::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (!parseToken(argv[i]))
            fatal("malformed argument '%s' (expected key=value)", argv[i]);
    }
}

std::string
Config::dump() const
{
    std::ostringstream os;
    for (const auto &[k, v] : values_)
        os << k << '=' << v << '\n';
    return os.str();
}

void
Config::rejectUnreadKeys() const
{
    for (const auto &entry : values_) {
        if (read_.count(entry.first))
            continue;
        std::string valid;
        for (const std::string &key : read_)
            valid += (valid.empty() ? "" : ", ") + key;
        fatal("unknown key '%s' (valid keys: %s)", entry.first.c_str(),
              valid.c_str());
    }
}

} // namespace carf
