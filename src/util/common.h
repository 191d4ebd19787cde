/**
 * @file
 * Common fixed-width typedefs and small helpers shared by all modules.
 */
#ifndef GB_UTIL_COMMON_H
#define GB_UTIL_COMMON_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace gb {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/** Error thrown for malformed user input (files, parameters). */
class InputError : public std::runtime_error
{
  public:
    explicit InputError(const std::string& what)
        : std::runtime_error(what) {}
};

/** Error thrown for violated internal invariants. */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string& what)
        : std::logic_error(what) {}
};

/** Throw InputError if `cond` is false. */
inline void
requireInput(bool cond, const std::string& what)
{
    if (!cond) throw InputError(what);
}

/**
 * Literal-message overload: no std::string is built unless the check
 * fails. Messages composed at run time belong after a failed check
 * (`if (!cond) throw InputError(...)`), not in the argument list.
 */
inline void
requireInput(bool cond, const char* what)
{
    if (!cond) throw InputError(what);
}

/** Integer ceiling division for non-negative operands. */
template <typename T>
constexpr T
ceilDiv(T a, T b)
{
    return (a + b - 1) / b;
}

/** Round `a` up to the next multiple of `b` (b > 0). */
template <typename T>
constexpr T
roundUp(T a, T b)
{
    return ceilDiv(a, b) * b;
}

} // namespace gb

#endif // GB_UTIL_COMMON_H
