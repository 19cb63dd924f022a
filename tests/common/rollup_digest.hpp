#pragma once
// Golden rollup digests: a frozen oracle matrix stores one 64-bit FNV-1a
// digest of FleetResult::to_jsonl() per cell instead of the full dump. Two
// rollups share a digest iff (up to hash collisions) every byte matches, so
// a golden test pins the exact output the fleet scheduler must reproduce.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace magus::test {

/// 64-bit FNV-1a over `bytes`.
constexpr std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// `v` as a C++ literal ("0x0123456789abcdefull"), ready to paste into a
/// golden table.
inline std::string digest_literal(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull", v);
  return buf;
}

/// Success iff `jsonl` hashes to `golden`; the failure message carries the
/// actual digest so a deliberate output change can re-freeze the cell.
inline ::testing::AssertionResult digest_matches(std::string_view jsonl,
                                                 std::uint64_t golden) {
  const std::uint64_t actual = fnv1a64(jsonl);
  if (actual == golden) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "rollup digest " << digest_literal(actual) << " != golden "
         << digest_literal(golden);
}

}  // namespace magus::test
