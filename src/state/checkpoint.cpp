#include "state/checkpoint.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
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

// ---- field lists (Put / Get in checkpoint_detail.hpp walk them) ------------

// The largest value of each saved enum; Get rejects anything above it.
constexpr LbState enum_max(LbState) { return LbState::kObservation; }
constexpr SimKind enum_max(SimKind) { return SimKind::kStokes; }

namespace ckpt {

void fields(auto& ar, Is<OpCounts> auto& c) {
  ar(c.p2m, c.p2m_bodies, c.m2m, c.m2l, c.l2l, c.l2p, c.l2p_bodies,
     c.p2p_interactions, c.p2p_node_pairs);
}

// Not declaration order: the counts and the per-operation totals come
// before the overlap makespans.
void fields(auto& ar, Is<ObservedStepTimes> auto& t) {
  ar(t.cpu_seconds, t.gpu_seconds, t.cpu_p2p_seconds, t.transfer_retries,
     t.counts, t.t_p2m, t.t_m2m, t.t_m2l, t.t_l2l, t.t_l2p, t.overlap_seconds,
     t.overlap_cpu_seconds, t.overlap_near_seconds);
}

void fields(auto& ar, Is<OctreeNode> auto& n) {
  ar(n.center, n.half, n.parent, n.children, n.has_children, n.level,
     n.collapsed, n.begin, n.count);
}

// TreeConfig::build_strategy is an unread stub and is not saved.
void fields(auto& ar, Is<OctreeSnapshot> auto& t) {
  ar(t.config.leaf_capacity, t.config.max_depth, t.config.root_center,
     t.config.root_half, t.nodes, t.sorted_pos, t.perm);
}

void fields(auto& ar, Is<CostCoefficients> auto& c) {
  ar(c.p2m_per_body, c.m2m, c.m2l, c.l2l, c.l2p_per_body, c.p2p, c.p2p_cpu,
     c.cpu_efficiency, c.overlap_efficiency, c.near_overhead_seconds);
}

void fields(auto& ar, Is<LoadBalancerSnapshot> auto& b) {
  ar(b.state, b.S, b.search_lo, b.search_hi, b.search_steps, b.last_dominant,
     b.best_compute, b.reset_best_next, b.last_epoch, b.epoch_pending,
     b.model.coefficients, b.model.observations,
     b.model.overlap_observations);
}

void fields(auto& ar, Is<GpuHealth> auto& g) { ar(g.alive, g.clock_scale); }

void fields(auto& ar, Is<MachineHealth> auto& h) {
  ar(h.gpus, h.cpu_cores_available, h.cpu_cores_provisioned,
     h.transfer_fault_prob, h.transfer_seed, h.fault_epoch);
}

// ---- file layer (shared with shard_store.cpp and cluster/) -----------------

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

// Section ids run from 1 to kRng.
constexpr auto kNumSections = static_cast<std::uint32_t>(SectionId::kRng);
// Sections a checkpoint cannot be restored without.
constexpr std::uint32_t kRequiredSections =
    1u << static_cast<int>(SectionId::kMeta) |
    1u << static_cast<int>(SectionId::kBodies) |
    1u << static_cast<int>(SectionId::kTree) |
    1u << static_cast<int>(SectionId::kBalancer) |
    1u << static_cast<int>(SectionId::kHealth) |
    1u << static_cast<int>(SectionId::kInjector);

// The fields of section `id`, in wire order: encode_checkpoint and
// decode_checkpoint both walk this one switch.
template <class Ar>
void section(Ar& ar, SectionId id, Is<SimCheckpoint> auto& c) {
  switch (id) {
    case SectionId::kMeta: {
      // The step travels as an i64; the body count is informational: it is
      // written, read and ignored.
      std::int64_t step = c.step;
      std::uint64_t num_bodies = c.bodies.size();
      ar(c.kind, step, num_bodies);
      if constexpr (Ar::kReading) c.step = static_cast<int>(step);
      return;
    }
    case SectionId::kBodies:
      return ar(c.bodies.positions, c.bodies.velocities, c.bodies.masses);
    case SectionId::kDerived:
      return ar(c.accel, c.potential);
    case SectionId::kObserved:
      return ar(c.has_observed, c.observed);
    case SectionId::kTree:
      return ar(c.tree);
    case SectionId::kBalancer:
      return ar(c.balancer);
    case SectionId::kHealth:
      return ar(c.health);
    case SectionId::kInjector:
      return ar(c.injector);
    case SectionId::kRng:
      return ar(c.rng_words);
  }
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const SimCheckpoint& ckpt) {
  ByteWriter out;
  out.u32(kCheckpointMagic);
  out.u32(kCheckpointVersion);
  out.u32(kNumSections);
  for (std::uint32_t id = 1; id <= kNumSections; ++id) {
    ByteWriter payload;
    Put put{payload};
    section(put, static_cast<SectionId>(id), ckpt);
    append_section(out, id, payload.buffer());
  }
  return out.take();
}

std::optional<SimCheckpoint> decode_checkpoint(
    std::span<const std::uint8_t> data, std::string* error) {
  SimCheckpoint ckpt;
  std::uint32_t seen = 0;
  const auto visit = [&](std::uint32_t id,
                         std::span<const std::uint8_t> payload) {
    if (id < 1 || id > kNumSections)
      return true;  // unknown section: skip (forward compatibility)
    ByteReader r(payload);
    Get get{r};
    section(get, static_cast<SectionId>(id), ckpt);
    seen |= 1u << id;
    return r.ok() && r.remaining() == 0;
  };
  if (!read_sections(data, kCheckpointMagic, kCheckpointVersion, visit, error))
    return std::nullopt;
  if ((seen & kRequiredSections) != kRequiredSections) {
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
