/**
 * @file
 * The one tokenizer and the strict number readers behind every spec
 * grammar: traffic scenarios, static fault scenarios, fault churn,
 * link specs (CLI and the daemon's inject-fault op), permutations,
 * and the numeric command-line arguments of the front ends
 * (docs/SIMULATOR.md, "Spec grammar").
 *
 * A field is read whole or not at all: the readers reject an empty
 * field, a sign, whitespace, trailing junk, a non-finite real and a
 * value that does not fit the destination type.  split() keeps empty
 * fields, so a trailing separator ("links:4:") is a field the
 * grammar must account for instead of a silently dropped one.
 *
 * Plain functions by design: each grammar keeps its own kind table
 * and argument checks next to its spec type.
 */

#ifndef IADM_COMMON_SPEC_READER_HPP
#define IADM_COMMON_SPEC_READER_HPP

#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace iadm::spec {

/** Split @p s on @p sep, keeping empty fields: "a::b:" gives
 *  {"a", "", "b", ""} and "" gives {""}. */
inline std::vector<std::string>
split(std::string_view s, char sep)
{
    std::vector<std::string> out;
    for (;;) {
        const auto at = s.find(sep);
        out.emplace_back(s.substr(0, at));
        if (at == std::string_view::npos)
            return out;
        s.remove_prefix(at + 1);
    }
}

/** Read a decimal unsigned integer that fits @p out's type (labels,
 *  counts, cycles, seeds); @p out is untouched on failure. */
template <class T>
bool
readUnsigned(std::string_view s, T &out)
{
    static_assert(std::is_unsigned_v<T>);
    T v{};
    const char *end = s.data() + s.size();
    const auto [p, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || p != end)
        return false;
    out = v;
    return true;
}

/** Read a finite, non-negative real ("0.2", "1e-05", "400");
 *  @p out is untouched on failure. */
inline bool
readReal(std::string_view s, double &out)
{
    if (s.empty() || s.front() == '-')
        return false;
    double v = 0.0;
    const char *end = s.data() + s.size();
    const auto [p, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || p != end || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

/** readReal or readUnsigned by @p out's type, plus a [lo, hi] range
 *  check: the numeric-argument reader of the CLI front ends. */
template <class T>
bool
readNumber(std::string_view s, T &out, T lo = T{},
           T hi = std::numeric_limits<T>::max())
{
    T v{};
    bool ok = false;
    if constexpr (std::is_floating_point_v<T>)
        ok = readReal(s, v);
    else
        ok = readUnsigned(s, v);
    if (!ok || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

} // namespace iadm::spec

#endif // IADM_COMMON_SPEC_READER_HPP
