// Field codecs and the file layer shared by the checkpoint format
// (state/checkpoint.cpp), the sharded store (state/shard_store.cpp) and the
// cluster layer's state blob (cluster/cluster.cpp).
//
// Each saved struct has ONE list of its fields in wire order,
//
//   void fields(auto& ar, Is<Foo> auto& x) { ar(x.a, x.b, x.c); }
//
// walked by two archives: Put appends each field to a ByteWriter, Get reads
// it back through the bounds-checked ByteReader. The encoder and the decoder
// of a struct therefore cannot drift apart. Field types fix the widths: bool
// is u8, int i32, std::int64_t i64, std::uint32_t u32, std::uint64_t u64,
// double f64, an enum u32, a Vec3 three f64, a std::array its elements, and
// a std::vector a u64 count, then its elements (vectors of double, Vec3,
// std::uint32_t and std::uint64_t as one memcpy block).
//
// Get never throws on malformed input. A vector count is accepted only when
// that many elements fit in the bytes remaining, so a corrupt count can
// never balloon an allocation; an enum above its enum_max() (found by
// argument-dependent lookup) fails; any overrun latches the reader.
//
// Both file formats are sealed images:
//
//   u32 magic | u32 version | u32 section_count
//   section*: u32 id | u64 payload_size | u32 crc32(id|size|payload) | payload
//
// append_section writes one section; read_sections validates a whole image.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "faults/fault_injector.hpp"
#include "state/serial.hpp"
#include "util/vec3.hpp"

namespace afmm::ckpt {

// `T` is `U` or `const U`: one field list serves Put (const) and Get.
template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

// Element types whose in-memory layout is their wire layout.
template <class T>
inline constexpr bool kBlock =
    std::is_same_v<T, double> || std::is_same_v<T, Vec3> ||
    std::is_same_v<T, std::uint32_t> || std::is_same_v<T, std::uint64_t>;
static_assert(sizeof(Vec3) == 24, "Vec3 wire layout");

struct Put {
  static constexpr bool kReading = false;
  ByteWriter& w;

  template <class... T>
  void operator()(const T&... xs) {
    (put(xs), ...);
  }

 private:
  void put(bool v) { w.u8(v ? 1 : 0); }
  void put(int v) { w.i32(v); }
  void put(std::int64_t v) { w.i64(v); }
  void put(std::uint32_t v) { w.u32(v); }
  void put(std::uint64_t v) { w.u64(v); }
  void put(double v) { w.f64(v); }
  void put(const Vec3& v) { (*this)(v.x, v.y, v.z); }
  template <class E>
    requires std::is_enum_v<E>
  void put(const E& e) {
    w.u32(static_cast<std::uint32_t>(e));
  }
  template <class T, std::size_t N>
  void put(const std::array<T, N>& a) {
    for (const T& x : a) put(x);
  }
  template <class T>
  void put(const std::vector<T>& v) {
    w.u64(v.size());
    if constexpr (kBlock<T>)
      w.bytes(v.data(), v.size() * sizeof(T));
    else
      for (const T& x : v) put(x);
  }
  template <class T>
  void put(const T& x) {
    fields(*this, x);
  }
};

// Bytes one `T` occupies on the wire; every element type has a fixed width.
template <class T>
std::size_t wire_size() {
  static const std::size_t size = [] {
    ByteWriter w;
    Put{w}(T{});
    return w.size();
  }();
  return size;
}

struct Get {
  static constexpr bool kReading = true;
  ByteReader& r;

  template <class... T>
  void operator()(T&... xs) {
    (get(xs), ...);
  }

 private:
  void get(bool& v) { v = r.u8() != 0; }
  void get(int& v) { v = r.i32(); }
  void get(std::int64_t& v) { v = r.i64(); }
  void get(std::uint32_t& v) { v = r.u32(); }
  void get(std::uint64_t& v) { v = r.u64(); }
  void get(double& v) { v = r.f64(); }
  void get(Vec3& v) { (*this)(v.x, v.y, v.z); }
  template <class E>
    requires std::is_enum_v<E>
  void get(E& e) {
    const std::uint32_t v = r.u32();
    if (v > static_cast<std::uint32_t>(enum_max(E{})))
      r.fail();
    else
      e = static_cast<E>(v);
  }
  template <class T, std::size_t N>
  void get(std::array<T, N>& a) {
    for (T& x : a) get(x);
  }
  template <class T>
  void get(std::vector<T>& v) {
    const std::uint64_t n = r.u64();
    if (n > r.remaining() / wire_size<T>()) return r.fail();
    v.resize(n);
    if constexpr (kBlock<T>) {
      const auto raw = r.bytes(n * sizeof(T));
      // memcpy needs non-null pointers even for zero bytes, and an empty
      // vector's data() may be null.
      if (!raw.empty()) std::memcpy(v.data(), raw.data(), raw.size());
    } else {
      for (T& x : v) get(x);
    }
  }
  template <class T>
  void get(T& x) {
    fields(*this, x);
  }
};

void fields(auto& ar, Is<FaultInjectorSnapshot> auto& s) {
  ar(s.next_event, s.transfer_window_end, s.num_events, s.fired_mark);
}

// Appends one sealed section: the CRC covers the section header (id, size)
// AND the payload.
void append_section(ByteWriter& out, std::uint32_t id,
                    std::span<const std::uint8_t> payload);

// Validates a sealed image -- magic, version, every section's CRC, and no
// bytes after the declared section count -- and hands each section's id and
// payload to `visit`, in order; `visit` returns false on a malformed
// payload. On failure `error` (when given) names the cause: bad magic,
// format version, truncation, CRC mismatch, malformed section or trailing
// bytes.
using SectionVisitor =
    std::function<bool(std::uint32_t id, std::span<const std::uint8_t>)>;
bool read_sections(std::span<const std::uint8_t> data, std::uint32_t magic,
                   std::uint32_t version, const SectionVisitor& visit,
                   std::string* error);

// Crash-safe write: `<path>.tmp`, fsync, then an atomic rename over `path`.
bool write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes,
                       std::string* error);
// The whole file; nullopt when it cannot be opened.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

}  // namespace afmm::ckpt
