// Numbered entity names for test fixtures ("h0", "c12", "arch3", ...).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace dif::test {

/// `prefix` followed by `n` in decimal. It appends rather than writing
/// `"h" + std::to_string(n)`: GCC 12 at -O3 reports libstdc++'s
/// insert-at-front path of that expression as an overlapping copy
/// (-Wrestrict).
inline std::string numbered(std::string_view prefix, std::size_t n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

}  // namespace dif::test
