// Field-level codecs and the file layer shared by the checkpoint format
// (state/checkpoint.cpp), the sharded store (state/shard_store.cpp) and the
// cluster layer's state blob (cluster/cluster.cpp). All of them serialize
// the same structs -- trees, health registries, balancer snapshots,
// observed times, injector cursors -- and bit-identical restore demands one
// codec per struct, not drifting copies.
//
// Every get_* is bounds-checked through ByteReader: a corrupt length can
// never balloon an allocation, and a short payload latches the reader's fail
// flag instead of reading garbage.
//
// Both file formats are sealed images:
//
//   u32 magic | u32 version | u32 section_count
//   section*: u32 id | u64 payload_size | u32 crc32(id|size|payload) | payload
//
// append_section writes one section; read_sections validates a whole image.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "balance/load_balancer.hpp"
#include "faults/fault_injector.hpp"
#include "machine/machine.hpp"
#include "octree/octree.hpp"
#include "state/serial.hpp"
#include "util/vec3.hpp"

namespace afmm::ckpt {

void put_vec3(ByteWriter& w, const Vec3& v);
Vec3 get_vec3(ByteReader& r);

void put_vec3s(ByteWriter& w, const std::vector<Vec3>& v);
bool get_vec3s(ByteReader& r, std::vector<Vec3>& out);

void put_f64s(ByteWriter& w, const std::vector<double>& v);
bool get_f64s(ByteReader& r, std::vector<double>& out);

void put_u64s(ByteWriter& w, const std::vector<std::uint64_t>& v);
bool get_u64s(ByteReader& r, std::vector<std::uint64_t>& out);

void put_u32s(ByteWriter& w, const std::vector<std::uint32_t>& v);
bool get_u32s(ByteReader& r, std::vector<std::uint32_t>& out);

void put_observed(ByteWriter& w, const ObservedStepTimes& t);
ObservedStepTimes get_observed(ByteReader& r);

void put_tree(ByteWriter& w, const OctreeSnapshot& t);
bool get_tree(ByteReader& r, OctreeSnapshot& t);

void put_balancer(ByteWriter& w, const LoadBalancerSnapshot& b);
bool get_balancer(ByteReader& r, LoadBalancerSnapshot& b);

void put_health(ByteWriter& w, const MachineHealth& h);
bool get_health(ByteReader& r, MachineHealth& h);

void put_injector(ByteWriter& w, const FaultInjectorSnapshot& s);
FaultInjectorSnapshot get_injector(ByteReader& r);

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
