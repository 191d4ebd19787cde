/**
 * @file
 * Checked number parsing for values that arrive from outside the
 * program: command-line flags and job-file keys.
 *
 * Every value must be a whole decimal number in range — no sign on an
 * unsigned value, no trailing junk, no overflow — and every failure is
 * an InputError that names the flag, never a stray std:: exception.
 */
#ifndef GB_UTIL_PARSE_H
#define GB_UTIL_PARSE_H

#include <string_view>

#include "util/common.h"

namespace gb {

/**
 * Largest thread or worker count a flag or job line may request.
 * Checked when the value is parsed, so a typo is rejected before any
 * thread is started.
 */
inline constexpr u64 kMaxThreads = 1024;

/** Largest repeat, queue-depth or top-N count a flag or job line may
 *  request. */
inline constexpr u64 kMaxCount = 1'000'000;

/**
 * Parse `text` as an unsigned decimal integer in [min, max]. Throws
 * InputError naming `flag` on anything else.
 */
u64 parseUnsigned(std::string_view flag, std::string_view text,
                  u64 min, u64 max);

/**
 * Parse `text` as a finite decimal number. Throws InputError naming
 * `flag` on anything else.
 */
double parseDouble(std::string_view flag, std::string_view text);

} // namespace gb

#endif // GB_UTIL_PARSE_H
