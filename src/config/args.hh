/**
 * @file
 * Argument helpers shared by ttsim's flags and the benches' environment
 * knobs (TT_SCALE, TT_NODES, TT_APPS).
 */

#ifndef TT_CONFIG_ARGS_HH
#define TT_CONFIG_ARGS_HH

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace tt
{

/**
 * The value of argument @p key of program @p prog: the whole of @p v
 * as a decimal number in [lo, hi]. Anything else is a usage error: say
 * what the argument wants and exit 2.
 */
template <typename T>
T
numArg(const char* prog, const char* key, const std::string& v, T lo,
       T hi = std::numeric_limits<T>::max())
{
    const char* e = v.data() + v.size();
    T x{};
    const auto [end, ec] = std::from_chars(v.data(), e, x);
    if (ec == std::errc{} && end == e && x >= lo && x <= hi)
        return x;
    std::cerr << prog << ": " << key << " wants "
              << (std::is_integral_v<T> ? "an integer" : "a number");
    if (hi == std::numeric_limits<T>::max())
        std::cerr << " >= " << lo;
    else
        std::cerr << " in " << lo << ".." << hi;
    std::cerr << ", got '" << v << "'\n";
    std::exit(2);
}

/** The non-empty items of comma list @p v. */
inline std::vector<std::string>
splitList(const std::string& v)
{
    std::vector<std::string> out;
    std::istringstream in(v);
    for (std::string item; std::getline(in, item, ',');)
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace tt

#endif // TT_CONFIG_ARGS_HH
