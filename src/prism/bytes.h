// Binary serialization primitives (little-endian) used for Prism-MW events
// and migrated component state (the middleware's Serializable facility).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dif::prism {

/// Thrown by ByteReader on truncated or malformed input.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only binary writer.
class ByteWriter {
 public:
  /// Pre-sizes the buffer for `bytes` more bytes (callers that know the
  /// exact encoded size reserve once instead of growing per write).
  void reserve(std::size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(std::string_view v);
  void bytes(std::span<const std::uint8_t> v);
  /// Overwrites the u32 written at byte `offset` (a count reserved before
  /// the list it prefixes was known).
  void patch_u32(std::size_t offset, std::uint32_t v);

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential binary reader over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<std::uint8_t> bytes();

  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == data_.size();
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  void need(std::size_t count) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace dif::prism
