// Little-endian binary serialization primitives for the checkpoint format.
//
// ByteWriter appends fixed-width integers and IEEE doubles (via bit_cast) to
// a growable buffer; ByteReader is its bounds-checked inverse. A reader never
// throws on malformed input: any overrun latches the fail flag and every
// subsequent read returns zero, so decoders can run to completion and reject
// the snapshot once, at the end. crc32() is the IEEE 802.3 polynomial used to
// seal each checkpoint section against torn writes and bit rot.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace afmm {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void bytes(const void* data, std::size_t n) { raw(data, n); }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::int32_t i32() {
    std::int32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }

  // Borrow `n` raw bytes (no copy); empty span + fail on overrun.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (pos_ + n > data_.size()) {
      fail_ = true;
      return {};
    }
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  // Latches the fail flag: a decoder's own check rejected the input.
  void fail() { fail_ = true; }
  bool ok() const { return !fail_; }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void raw(void* out, std::size_t n) {
    if (fail_ || pos_ + n > data_.size()) {
      fail_ = true;
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool fail_ = false;
};

// CRC-32 (IEEE 802.3, reflected 0xEDB88320), table generated on first use.
// crc32_extend chains the computation over non-contiguous spans: feed the
// previous call's (finalized) result back in as `crc`, starting from 0 --
// crc32_extend(0, a ++ b) == crc32_extend(crc32_extend(0, a), b).
inline std::uint32_t crc32_extend(std::uint32_t crc,
                                  std::span<const std::uint8_t> data) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::uint8_t b : data) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_extend(0, data);
}

}  // namespace afmm
