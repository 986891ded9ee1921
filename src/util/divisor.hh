/**
 * @file
 * Exact unsigned 64-bit division by a run-time invariant divisor
 * without a divide instruction per call: Granlund and Montgomery's
 * round-up multiply-high method ("Division by Invariant Integers using
 * Multiplication", PLDI 1994, Fig. 4.1). The constructor does one
 * 128-bit division; quotient() is a multiply-high, a subtract, an add
 * and two shifts. For every divisor d >= 1 and every 64-bit n,
 * quotient(n) == n / d and remainder(n) == n % d, so a hot loop that
 * divides by a value fixed for the whole loop can use it without
 * changing a bit of its output.
 */

#ifndef GWS_UTIL_DIVISOR_HH
#define GWS_UTIL_DIVISOR_HH

#include <bit>
#include <cstdint>

#include "util/logging.hh"

namespace gws {

class Divisor
{
  public:
    /** Precompute the magic number for d = divisor (d >= 1). */
    explicit Divisor(std::uint64_t divisor) : d(divisor)
    {
        GWS_ASSERT(d >= 1, "division by zero");
        // l = ceil(log2 d), so 2^(l-1) < d <= 2^l and l may be 64:
        // 2^l is formed in 128 bits, never as a 64-bit shift.
        const int l = 64 - std::countl_zero(d - 1);
        const Wide two_l = Wide{1} << l;
        magic = static_cast<std::uint64_t>(((two_l - d) << 64) / d) + 1;
        shift1 = l < 1 ? l : 1;
        shift2 = l > 1 ? l - 1 : 0;
    }

    /** n / d. */
    std::uint64_t
    quotient(std::uint64_t n) const
    {
        const auto t =
            static_cast<std::uint64_t>((Wide{magic} * n) >> 64);
        return (t + ((n - t) >> shift1)) >> shift2;
    }

    /** n % d. */
    std::uint64_t
    remainder(std::uint64_t n) const
    {
        return n - quotient(n) * d;
    }

  private:
    __extension__ typedef unsigned __int128 Wide;

    std::uint64_t d;
    std::uint64_t magic;
    int shift1;
    int shift2;
};

} // namespace gws

#endif // GWS_UTIL_DIVISOR_HH
