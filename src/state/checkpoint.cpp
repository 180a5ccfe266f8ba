#include "state/checkpoint.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>

#include "state/checkpoint_detail.hpp"
#include "state/serial.hpp"

namespace afmm {

namespace {

void set_error(std::string* error, const std::string& what) {
  if (error) *error = what;
}

}  // namespace

// ---- codecs and file layer (shared with shard_store.cpp and cluster/) -----

namespace ckpt {

void put_vec3(ByteWriter& w, const Vec3& v) {
  w.f64(v.x);
  w.f64(v.y);
  w.f64(v.z);
}

Vec3 get_vec3(ByteReader& r) {
  Vec3 v;
  v.x = r.f64();
  v.y = r.f64();
  v.z = r.f64();
  return v;
}

void put_vec3s(ByteWriter& w, const std::vector<Vec3>& v) {
  w.u64(v.size());
  for (const auto& x : v) put_vec3(w, x);
}

// Length-prefixed vectors validate the count against the bytes actually
// remaining, so a corrupt length can never balloon an allocation.
bool get_vec3s(ByteReader& r, std::vector<Vec3>& out) {
  const std::uint64_t n = r.u64();
  if (n * 24 > r.remaining()) return false;
  out.resize(n);
  for (auto& x : out) x = get_vec3(r);
  return r.ok();
}

void put_f64s(ByteWriter& w, const std::vector<double>& v) {
  w.u64(v.size());
  for (double x : v) w.f64(x);
}

bool get_f64s(ByteReader& r, std::vector<double>& out) {
  const std::uint64_t n = r.u64();
  if (n * 8 > r.remaining()) return false;
  out.resize(n);
  for (auto& x : out) x = r.f64();
  return r.ok();
}

void put_u64s(ByteWriter& w, const std::vector<std::uint64_t>& v) {
  w.u64(v.size());
  for (auto x : v) w.u64(x);
}

bool get_u64s(ByteReader& r, std::vector<std::uint64_t>& out) {
  const std::uint64_t n = r.u64();
  if (n * 8 > r.remaining()) return false;
  out.resize(n);
  for (auto& x : out) x = r.u64();
  return r.ok();
}

void put_u32s(ByteWriter& w, const std::vector<std::uint32_t>& v) {
  w.u64(v.size());
  for (auto x : v) w.u32(x);
}

bool get_u32s(ByteReader& r, std::vector<std::uint32_t>& out) {
  const std::uint64_t n = r.u64();
  if (n * 4 > r.remaining()) return false;
  out.resize(n);
  for (auto& x : out) x = r.u32();
  return r.ok();
}

void put_op_counts(ByteWriter& w, const OpCounts& c) {
  w.u64(c.p2m);
  w.u64(c.p2m_bodies);
  w.u64(c.m2m);
  w.u64(c.m2l);
  w.u64(c.l2l);
  w.u64(c.l2p);
  w.u64(c.l2p_bodies);
  w.u64(c.p2p_interactions);
  w.u64(c.p2p_node_pairs);
}

OpCounts get_op_counts(ByteReader& r) {
  OpCounts c;
  c.p2m = r.u64();
  c.p2m_bodies = r.u64();
  c.m2m = r.u64();
  c.m2l = r.u64();
  c.l2l = r.u64();
  c.l2p = r.u64();
  c.l2p_bodies = r.u64();
  c.p2p_interactions = r.u64();
  c.p2p_node_pairs = r.u64();
  return c;
}

void put_observed(ByteWriter& w, const ObservedStepTimes& t) {
  w.f64(t.cpu_seconds);
  w.f64(t.gpu_seconds);
  w.f64(t.cpu_p2p_seconds);
  w.i32(t.transfer_retries);
  put_op_counts(w, t.counts);
  w.f64(t.t_p2m);
  w.f64(t.t_m2m);
  w.f64(t.t_m2l);
  w.f64(t.t_l2l);
  w.f64(t.t_l2p);
  w.f64(t.cpu_up_seconds);
  w.f64(t.cpu_down_seconds);
  w.f64(t.overlap_seconds);
  w.f64(t.overlap_cpu_seconds);
  w.f64(t.overlap_near_seconds);
}

ObservedStepTimes get_observed(ByteReader& r) {
  ObservedStepTimes t;
  t.cpu_seconds = r.f64();
  t.gpu_seconds = r.f64();
  t.cpu_p2p_seconds = r.f64();
  t.transfer_retries = r.i32();
  t.counts = get_op_counts(r);
  t.t_p2m = r.f64();
  t.t_m2m = r.f64();
  t.t_m2l = r.f64();
  t.t_l2l = r.f64();
  t.t_l2p = r.f64();
  t.cpu_up_seconds = r.f64();
  t.cpu_down_seconds = r.f64();
  t.overlap_seconds = r.f64();
  t.overlap_cpu_seconds = r.f64();
  t.overlap_near_seconds = r.f64();
  return t;
}

void put_tree(ByteWriter& w, const OctreeSnapshot& t) {
  w.i32(t.config.leaf_capacity);
  w.i32(t.config.max_depth);
  put_vec3(w, t.config.root_center);
  w.f64(t.config.root_half);
  w.u64(t.nodes.size());
  for (const auto& n : t.nodes) {
    put_vec3(w, n.center);
    w.f64(n.half);
    w.i32(n.parent);
    for (int c : n.children) w.i32(c);
    w.u8(n.has_children ? 1 : 0);
    w.i32(n.level);
    w.u8(n.collapsed ? 1 : 0);
    w.u32(n.begin);
    w.u32(n.count);
  }
  // The O(N) body arrays are flat PODs in the exact wire layout; bulk-copy
  // them instead of looping per element (the node loop above stays per-field:
  // it is O(N/S) and OctreeNode has padding the format must not absorb).
  static_assert(sizeof(Vec3) == 24, "Vec3 wire layout");
  w.u64(t.sorted_pos.size());
  w.bytes(t.sorted_pos.data(), t.sorted_pos.size() * sizeof(Vec3));
  w.u64(t.perm.size());
  w.bytes(t.perm.data(), t.perm.size() * sizeof(std::uint32_t));
}

bool get_tree(ByteReader& r, OctreeSnapshot& t) {
  t.config.leaf_capacity = r.i32();
  t.config.max_depth = r.i32();
  t.config.root_center = get_vec3(r);
  t.config.root_half = r.f64();
  const std::uint64_t num_nodes = r.u64();
  // Conservative lower bound on a serialized node keeps a corrupt count from
  // allocating unbounded memory.
  if (num_nodes * 32 > r.remaining()) return false;
  t.nodes.resize(num_nodes);
  for (auto& n : t.nodes) {
    n.center = get_vec3(r);
    n.half = r.f64();
    n.parent = r.i32();
    for (auto& c : n.children) c = r.i32();
    n.has_children = r.u8() != 0;
    n.level = r.i32();
    n.collapsed = r.u8() != 0;
    n.begin = r.u32();
    n.count = r.u32();
  }
  const std::uint64_t num_pos = r.u64();
  if (num_pos * sizeof(Vec3) > r.remaining()) return false;
  t.sorted_pos.resize(num_pos);
  {
    const auto raw = r.bytes(num_pos * sizeof(Vec3));
    // memcpy requires non-null pointers even for zero bytes, and an empty
    // vector's data() may be null.
    if (!raw.empty()) std::memcpy(t.sorted_pos.data(), raw.data(), raw.size());
  }
  const std::uint64_t num_perm = r.u64();
  if (num_perm * sizeof(std::uint32_t) > r.remaining()) return false;
  t.perm.resize(num_perm);
  {
    const auto raw = r.bytes(num_perm * sizeof(std::uint32_t));
    if (!raw.empty()) std::memcpy(t.perm.data(), raw.data(), raw.size());
  }
  return r.ok();
}

void put_balancer(ByteWriter& w, const LoadBalancerSnapshot& b) {
  w.u32(static_cast<std::uint32_t>(b.state));
  w.i32(b.S);
  w.i32(b.search_lo);
  w.i32(b.search_hi);
  w.i32(b.search_steps);
  w.i32(b.last_dominant);
  w.f64(b.best_compute);
  w.u8(b.reset_best_next ? 1 : 0);
  w.u64(b.last_epoch);
  w.i32(b.epoch_pending);
  const CostCoefficients& c = b.model.coefficients;
  w.f64(c.p2m_per_body);
  w.f64(c.m2m);
  w.f64(c.m2l);
  w.f64(c.l2l);
  w.f64(c.l2p_per_body);
  w.f64(c.p2p);
  w.f64(c.p2p_cpu);
  w.f64(c.cpu_efficiency);
  w.f64(c.up_efficiency);
  w.f64(c.down_efficiency);
  w.f64(c.overlap_efficiency);
  w.f64(c.near_overhead_seconds);
  w.i32(b.model.observations);
  w.i32(b.model.overlap_observations);
}

bool get_balancer(ByteReader& r, LoadBalancerSnapshot& b) {
  const std::uint32_t state = r.u32();
  if (state > static_cast<std::uint32_t>(LbState::kObservation)) return false;
  b.state = static_cast<LbState>(state);
  b.S = r.i32();
  b.search_lo = r.i32();
  b.search_hi = r.i32();
  b.search_steps = r.i32();
  b.last_dominant = r.i32();
  b.best_compute = r.f64();
  b.reset_best_next = r.u8() != 0;
  b.last_epoch = r.u64();
  b.epoch_pending = r.i32();
  CostCoefficients& c = b.model.coefficients;
  c.p2m_per_body = r.f64();
  c.m2m = r.f64();
  c.m2l = r.f64();
  c.l2l = r.f64();
  c.l2p_per_body = r.f64();
  c.p2p = r.f64();
  c.p2p_cpu = r.f64();
  c.cpu_efficiency = r.f64();
  c.up_efficiency = r.f64();
  c.down_efficiency = r.f64();
  c.overlap_efficiency = r.f64();
  c.near_overhead_seconds = r.f64();
  b.model.observations = r.i32();
  b.model.overlap_observations = r.i32();
  return r.ok();
}

void put_health(ByteWriter& w, const MachineHealth& h) {
  w.u64(h.gpus.size());
  for (const auto& g : h.gpus) {
    w.u8(g.alive ? 1 : 0);
    w.f64(g.clock_scale);
  }
  w.i32(h.cpu_cores_available);
  w.i32(h.cpu_cores_provisioned);
  w.f64(h.transfer_fault_prob);
  w.u64(h.transfer_seed);
  w.u64(h.fault_epoch);
}

bool get_health(ByteReader& r, MachineHealth& h) {
  const std::uint64_t num_gpus = r.u64();
  if (num_gpus * 9 > r.remaining()) return false;
  h.gpus.resize(num_gpus);
  for (auto& g : h.gpus) {
    g.alive = r.u8() != 0;
    g.clock_scale = r.f64();
  }
  h.cpu_cores_available = r.i32();
  h.cpu_cores_provisioned = r.i32();
  h.transfer_fault_prob = r.f64();
  h.transfer_seed = r.u64();
  h.fault_epoch = r.u64();
  return r.ok();
}

void put_injector(ByteWriter& w, const FaultInjectorSnapshot& s) {
  w.u64(s.next_event);
  w.i32(s.transfer_window_end);
  w.u64(s.num_events);
  w.u64(s.fired_mark);
}

FaultInjectorSnapshot get_injector(ByteReader& r) {
  FaultInjectorSnapshot s;
  s.next_event = r.u64();
  s.transfer_window_end = r.i32();
  s.num_events = r.u64();
  s.fired_mark = r.u64();
  return s;
}

namespace {

// v3 seal: the CRC covers the section header (id, size) AND the payload, so
// corruption anywhere in the section record is caught -- a payload-only CRC
// let a flipped id byte reclassify a section as unknown (skipped "for forward
// compatibility") and decode a checkpoint missing one of its parts.
std::uint32_t section_crc(std::uint32_t id,
                          std::span<const std::uint8_t> payload) {
  ByteWriter hdr;
  hdr.u32(id);
  hdr.u64(payload.size());
  return crc32_extend(crc32(hdr.buffer()), payload);
}

}  // namespace

void append_section(ByteWriter& out, std::uint32_t id,
                    std::span<const std::uint8_t> payload) {
  out.u32(id);
  out.u64(payload.size());
  out.u32(section_crc(id, payload));
  out.bytes(payload.data(), payload.size());
}

bool read_sections(std::span<const std::uint8_t> data, std::uint32_t magic,
                   std::uint32_t version, const SectionVisitor& visit,
                   std::string* error) {
  ByteReader r(data);
  if (r.u32() != magic) {
    set_error(error, "bad magic");
    return false;
  }
  const std::uint32_t got = r.u32();
  if (got != version) {
    set_error(error, "format version " + std::to_string(got) +
                         " (expected " + std::to_string(version) + ")");
    return false;
  }
  const std::uint32_t sections = r.u32();
  if (!r.ok()) {
    set_error(error, "truncated header");
    return false;
  }
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::uint32_t id = r.u32();
    const std::uint64_t size = r.u64();
    const std::uint32_t crc = r.u32();
    if (!r.ok() || size > r.remaining()) {
      set_error(error, "truncated section " + std::to_string(id));
      return false;
    }
    const auto payload = r.bytes(size);
    if (section_crc(id, payload) != crc) {
      set_error(error, "CRC mismatch in section " + std::to_string(id));
      return false;
    }
    if (!visit(id, payload)) {
      set_error(error, "malformed section " + std::to_string(id));
      return false;
    }
  }
  // Bytes past the declared sections mean the count itself is corrupt (a
  // flipped count byte would otherwise silently drop trailing sections).
  if (r.remaining() != 0) {
    set_error(error, "trailing bytes after last section");
    return false;
  }
  return true;
}

bool write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes,
                       std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    set_error(error, "cannot open " + tmp);
    return false;
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
      std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!wrote) {
    set_error(error, "short write to " + tmp);
    std::remove(tmp.c_str());
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);  // atomic on POSIX
  if (ec) {
    set_error(error, "rename failed: " + ec.message());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
    bytes.insert(bytes.end(), buf, buf + got);
  std::fclose(f);
  return bytes;
}

}  // namespace ckpt

using namespace ckpt;

namespace {

namespace fs = std::filesystem;

enum class SectionId : std::uint32_t {
  kMeta = 1,
  kBodies = 2,
  kDerived = 3,
  kObserved = 4,
  kTree = 5,
  kBalancer = 6,
  kHealth = 7,
  kInjector = 8,
  kRng = 9,
};

void append(ByteWriter& out, SectionId id, const ByteWriter& payload) {
  append_section(out, static_cast<std::uint32_t>(id), payload.buffer());
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const SimCheckpoint& ckpt) {
  ByteWriter out;
  out.u32(kCheckpointMagic);
  out.u32(kCheckpointVersion);
  out.u32(9);  // section count

  ByteWriter meta;
  meta.u32(static_cast<std::uint32_t>(ckpt.kind));
  meta.i64(ckpt.step);
  meta.u64(ckpt.bodies.size());
  append(out, SectionId::kMeta, meta);

  ByteWriter bodies;
  put_vec3s(bodies, ckpt.bodies.positions);
  put_vec3s(bodies, ckpt.bodies.velocities);
  put_f64s(bodies, ckpt.bodies.masses);
  append(out, SectionId::kBodies, bodies);

  ByteWriter derived;
  put_vec3s(derived, ckpt.accel);
  put_f64s(derived, ckpt.potential);
  append(out, SectionId::kDerived, derived);

  ByteWriter observed;
  observed.u8(ckpt.has_observed ? 1 : 0);
  put_observed(observed, ckpt.observed);
  append(out, SectionId::kObserved, observed);

  ByteWriter tree;
  put_tree(tree, ckpt.tree);
  append(out, SectionId::kTree, tree);

  ByteWriter balancer;
  put_balancer(balancer, ckpt.balancer);
  append(out, SectionId::kBalancer, balancer);

  ByteWriter health;
  put_health(health, ckpt.health);
  append(out, SectionId::kHealth, health);

  ByteWriter injector;
  put_injector(injector, ckpt.injector);
  append(out, SectionId::kInjector, injector);

  ByteWriter rng;
  put_u64s(rng, ckpt.rng_words);
  append(out, SectionId::kRng, rng);

  return out.take();
}

std::optional<SimCheckpoint> decode_checkpoint(
    std::span<const std::uint8_t> data, std::string* error) {
  SimCheckpoint ckpt;
  bool have_meta = false, have_bodies = false, have_tree = false,
       have_balancer = false, have_health = false, have_injector = false;
  const auto visit = [&](std::uint32_t id,
                         std::span<const std::uint8_t> payload) {
    ByteReader r(payload);
    switch (static_cast<SectionId>(id)) {
      case SectionId::kMeta: {
        const std::uint32_t kind = r.u32();
        ckpt.kind = static_cast<SimKind>(kind);
        ckpt.step = static_cast<int>(r.i64());
        r.u64();  // body count: informational
        const auto max_kind = static_cast<std::uint32_t>(SimKind::kStokes);
        return have_meta = r.ok() && kind <= max_kind;
      }
      case SectionId::kBodies:
        return have_bodies = get_vec3s(r, ckpt.bodies.positions) &&
                             get_vec3s(r, ckpt.bodies.velocities) &&
                             get_f64s(r, ckpt.bodies.masses);
      case SectionId::kDerived:
        return get_vec3s(r, ckpt.accel) && get_f64s(r, ckpt.potential);
      case SectionId::kObserved:
        ckpt.has_observed = r.u8() != 0;
        ckpt.observed = get_observed(r);
        return r.ok();
      case SectionId::kTree:
        return have_tree = get_tree(r, ckpt.tree);
      case SectionId::kBalancer:
        return have_balancer = get_balancer(r, ckpt.balancer);
      case SectionId::kHealth:
        return have_health = get_health(r, ckpt.health);
      case SectionId::kInjector:
        ckpt.injector = get_injector(r);
        return have_injector = r.ok();
      case SectionId::kRng:
        return get_u64s(r, ckpt.rng_words);
    }
    return true;  // unknown section: skip (forward compatibility)
  };
  if (!read_sections(data, kCheckpointMagic, kCheckpointVersion, visit, error))
    return std::nullopt;
  if (!have_meta || !have_bodies || !have_tree || !have_balancer ||
      !have_health || !have_injector) {
    set_error(error, "missing required section");
    return std::nullopt;
  }
  return ckpt;
}

bool save_checkpoint_file(const std::string& path, const SimCheckpoint& ckpt,
                          std::string* error) {
  return write_file_atomic(path, encode_checkpoint(ckpt), error);
}

std::optional<SimCheckpoint> load_checkpoint_file(const std::string& path,
                                                  std::string* error) {
  const auto bytes = read_file(path);
  if (!bytes) {
    set_error(error, "cannot open " + path);
    return std::nullopt;
  }
  return decode_checkpoint(*bytes, error);
}

bool valid_store_owner(const std::string& owner) {
  for (char c : owner) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

SnapshotFiles::SnapshotFiles(std::string dir, int keep, std::string owner,
                             std::string stem, std::string suffix)
    : dir_(std::move(dir)),
      keep_(std::max(1, keep)),
      owner_(std::move(owner)),
      prefix_(owner_.empty() ? stem : owner_ + "_" + stem),
      suffix_(std::move(suffix)) {
  if (!valid_store_owner(owner_))
    throw std::invalid_argument(
        "store owner '" + owner_ +
        "' invalid: only [A-Za-z0-9.-] allowed (no '_', which would make the "
        "name parse as another owner's)");
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

std::string SnapshotFiles::path(int step) const {
  char digits[16];
  std::snprintf(digits, sizeof digits, "%010d", step);
  return (fs::path(dir_) / (prefix_ + digits + suffix_)).string();
}

std::vector<int> SnapshotFiles::steps() const {
  constexpr std::size_t kDigits = 10;
  std::vector<int> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != prefix_.size() + kDigits + suffix_.size() ||
        name.compare(0, prefix_.size(), prefix_) != 0 ||
        name.compare(prefix_.size() + kDigits, suffix_.size(), suffix_) != 0)
      continue;
    long long step = 0;
    bool digits = true;
    for (std::size_t i = prefix_.size(); i < prefix_.size() + kDigits; ++i) {
      digits = digits && name[i] >= '0' && name[i] <= '9';
      step = step * 10 + (name[i] - '0');
    }
    // An int step never prints wider; anything else is not ours.
    if (digits && step <= std::numeric_limits<int>::max())
      out.push_back(static_cast<int>(step));
  }
  std::sort(out.rbegin(), out.rend());
  return out;
}

std::vector<std::string> SnapshotFiles::list() const {
  std::vector<std::string> out;
  for (int step : steps()) out.push_back(path(step));
  return out;
}

std::vector<int> SnapshotFiles::excess(int written) const {
  std::vector<int> out;
  int kept = 1;  // the snapshot just written
  for (int step : steps()) {
    if (step == written) continue;
    if (kept < keep_)
      ++kept;
    else
      out.push_back(step);
  }
  return out;
}

namespace {

// Per-process registry backing CheckpointOwnerClaim. Keyed by the directory
// string exactly as the engine configured it -- the point is disambiguating
// engines that were handed the SAME config, not defeating aliased paths.
std::mutex& claim_mutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, std::set<std::string>>& claim_registry() {
  static std::map<std::string, std::set<std::string>> reg;
  return reg;
}

}  // namespace

CheckpointOwnerClaim CheckpointOwnerClaim::claim(const std::string& dir) {
  CheckpointOwnerClaim c;
  c.dir_ = dir;
  std::lock_guard<std::mutex> lock(claim_mutex());
  auto& owners = claim_registry()[dir];
  if (!owners.count("")) {
    c.owner_ = "";
  } else {
    for (int i = 1;; ++i) {
      std::string candidate = "e" + std::to_string(i);
      if (!owners.count(candidate)) {
        c.owner_ = std::move(candidate);
        break;
      }
    }
  }
  owners.insert(c.owner_);
  c.active_ = true;
  return c;
}

void CheckpointOwnerClaim::release() {
  if (!active_) return;
  active_ = false;
  std::lock_guard<std::mutex> lock(claim_mutex());
  auto it = claim_registry().find(dir_);
  if (it == claim_registry().end()) return;
  it->second.erase(owner_);
  if (it->second.empty()) claim_registry().erase(it);
}

CheckpointStore::CheckpointStore(std::string dir, int keep, std::string owner)
    : files_(std::move(dir), keep, std::move(owner), "ckpt_", ".afmm") {}

bool CheckpointStore::save(const SimCheckpoint& ckpt, std::string* error) {
  if (!save_checkpoint_file(files_.path(ckpt.step), ckpt, error)) return false;
  for (int step : files_.excess(ckpt.step)) {
    std::error_code ec;
    fs::remove(files_.path(step), ec);
  }
  return true;
}

std::optional<SimCheckpoint> CheckpointStore::load(int step,
                                                   std::string* error) const {
  return load_checkpoint_file(files_.path(step), error);
}

std::optional<SimCheckpoint> CheckpointStore::load_latest(
    std::string* error) const {
  std::string last_error = "no snapshots in " + dir();
  for (const auto& path : files()) {
    std::string file_error;
    if (auto ckpt = load_checkpoint_file(path, &file_error)) return ckpt;
    last_error = path + ": " + file_error;
  }
  set_error(error, last_error);
  return std::nullopt;
}

}  // namespace afmm
