/**
 * @file
 * Strict numeric command-line values. atoi/atoll turn garbage into 0
 * and wrap negatives into huge unsigned values, so a typo in an
 * operator flag silently changes what the flag means. parseIntArg
 * accepts only a whole base-10 integer inside the flag's range.
 */
#ifndef FACILE_SUPPORT_CLI_H
#define FACILE_SUPPORT_CLI_H

#include <charconv>
#include <cstring>
#include <limits>
#include <system_error>
#include <type_traits>

namespace facile {

/**
 * Parse @p text as a base-10 integer in [@p lo, @p hi] into @p out.
 * The whole string must be the number: no whitespace, no '+', no
 * trailing characters, and a '-' only for signed types. Returns false
 * for a null or empty string, garbage, and any value outside the range
 * or the type (overflow included), leaving @p out unchanged.
 */
template <typename T>
bool
parseIntArg(const char *text, T &out, std::type_identity_t<T> lo,
            std::type_identity_t<T> hi = std::numeric_limits<T>::max())
{
    if (!text || !*text)
        return false;
    const char *end = text + std::strlen(text);
    T v{};
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

} // namespace facile

#endif // FACILE_SUPPORT_CLI_H
