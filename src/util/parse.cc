#include "util/parse.h"

#include <charconv>
#include <cmath>
#include <string>

namespace gb {

u64
parseUnsigned(std::string_view flag, std::string_view text, u64 min,
              u64 max)
{
    u64 value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    const bool whole =
        ec == std::errc() && ptr == text.data() + text.size();
    requireInput(whole && value >= min && value <= max,
                 std::string(flag) + " expects a whole number in [" +
                     std::to_string(min) + ", " + std::to_string(max) +
                     "], got '" + std::string(text) + "'");
    return value;
}

double
parseDouble(std::string_view flag, std::string_view text)
{
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    requireInput(ec == std::errc() &&
                     ptr == text.data() + text.size() &&
                     std::isfinite(value),
                 std::string(flag) + " expects a number, got '" +
                     std::string(text) + "'");
    return value;
}

} // namespace gb
