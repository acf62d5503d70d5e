// Cache geometry: size/associativity/line-size arithmetic shared by all
// cache levels and the TLB.
#pragma once

#include <bit>
#include <cstdint>

#include "sim/types.hpp"
#include "util/check.hpp"

namespace fsml::sim {

struct CacheGeometry {
  std::uint64_t size_bytes = 0;
  std::uint32_t ways = 0;
  std::uint32_t line_bytes = 64;

  constexpr std::uint64_t num_lines() const { return size_bytes / line_bytes; }
  constexpr std::uint64_t num_sets() const { return num_lines() / ways; }

  void validate() const {
    FSML_CHECK_MSG(size_bytes > 0 && ways > 0 && line_bytes > 0,
                   "cache geometry fields must be positive");
    FSML_CHECK_MSG(std::has_single_bit(static_cast<std::uint64_t>(line_bytes)),
                   "line size must be a power of two");
    FSML_CHECK_MSG(size_bytes % (static_cast<std::uint64_t>(ways) * line_bytes) == 0,
                   "size must be a multiple of ways*line");
  }

  Addr line_addr(Addr a) const { return a & ~static_cast<Addr>(line_bytes - 1); }
};

/// Address -> (line number, set) mapping of one geometry, precomputed once
/// so a lookup does no runtime division: the line number is one shift, and
/// the set is a mask for power-of-two set counts or a multiply by a
/// precomputed reciprocal otherwise. Modulo indexing: real LLCs with
/// non-power-of-two set counts (Westmere's 12 MiB/16-way L3 has 12288 sets)
/// hash addresses to sets; modulo is the simplest distribution-preserving
/// stand-in.
class SetIndex {
 public:
  explicit SetIndex(const CacheGeometry& g)
      : line_shift_(static_cast<std::uint32_t>(std::countr_zero(
            static_cast<std::uint64_t>(g.line_bytes)))),
        num_sets_(g.num_sets()),
        pow2_sets_(std::has_single_bit(num_sets_)) {
    if (pow2_sets_) return;
    // Granlund-Montgomery round-up reciprocal for an arbitrary divisor d:
    // with l = ceil(log2 d) and m = floor(2^64 (2^l - d) / d) + 1,
    // n / d = (t + ((n - t) >> 1)) >> (l - 1) where t = mulhi(n, m), exact
    // for every 64-bit n.
    const auto l = static_cast<std::uint32_t>(std::bit_width(num_sets_ - 1));
    const U128 scaled = static_cast<U128>((std::uint64_t{1} << l) - num_sets_)
                        << 64;
    magic_ = static_cast<std::uint64_t>(scaled / num_sets_) + 1;
    magic_shift_ = l - 1;
  }

  std::uint32_t line_shift() const { return line_shift_; }
  Addr offset_mask() const { return (Addr{1} << line_shift_) - 1; }
  std::uint64_t num_sets() const { return num_sets_; }

  std::uint64_t line_number(Addr a) const { return a >> line_shift_; }
  std::uint64_t set_of(std::uint64_t line_number) const {
    if (pow2_sets_) return line_number & (num_sets_ - 1);
    const auto t = static_cast<std::uint64_t>(
        (static_cast<U128>(line_number) * magic_) >> 64);
    const std::uint64_t q = (t + ((line_number - t) >> 1)) >> magic_shift_;
    return line_number - q * num_sets_;
  }

 private:
  __extension__ using U128 = unsigned __int128;

  std::uint32_t line_shift_;
  std::uint64_t num_sets_;
  bool pow2_sets_;
  std::uint64_t magic_ = 0;
  std::uint32_t magic_shift_ = 0;
};

}  // namespace fsml::sim
