#include "prism/bytes.h"

#include "util/assert.h"

namespace dif::prism {

void ByteWriter::u32(std::uint32_t v) {
  std::uint8_t le[4];
  for (int i = 0; i < 4; ++i) le[i] = (v >> (8 * i)) & 0xff;
  buf_.insert(buf_.end(), le, le + 4);
}

void ByteWriter::u64(std::uint64_t v) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = (v >> (8 * i)) & 0xff;
  buf_.insert(buf_.end(), le, le + 8);
}

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void ByteWriter::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void ByteWriter::bytes(std::span<const std::uint8_t> v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  DIF_ASSERT(offset + 4 <= buf_.size(), "patch_u32 past the end");
  for (int i = 0; i < 4; ++i) buf_[offset + i] = (v >> (8 * i)) & 0xff;
}

void ByteReader::need(std::size_t count) const {
  if (pos_ + count > data_.size())
    throw DecodeError("ByteReader: truncated input");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return out;
}

std::vector<std::uint8_t> ByteReader::bytes() {
  const std::uint32_t len = u32();
  need(len);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() +
                                    static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return out;
}

}  // namespace dif::prism
