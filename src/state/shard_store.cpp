#include "state/shard_store.hpp"

#include <cstdio>
#include <filesystem>

#include "state/checkpoint_detail.hpp"
#include "state/serial.hpp"

namespace afmm {

using namespace ckpt;

namespace {

namespace fs = std::filesystem;

enum class ShardSection : std::uint32_t {
  kGlobal = 1,
  kCluster = 2,
  kShardTable = 3,
  kShardData = 4,
};

struct ShardFileEntry {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint64_t file_size = 0;
  std::uint32_t file_crc = 0;
};

// Which per-body arrays the checkpoint carries (gravity has all of them,
// Stokes has no masses and no derived fields). The shard table records the
// flags; every shard file must then carry matching slices.
struct BodyArrayFlags {
  bool velocities = false;
  bool masses = false;
  bool accel = false;
  bool potential = false;
};

void set_error(std::string* error, const std::string& what) {
  if (error) *error = what;
}

void append(ByteWriter& out, ShardSection id,
            std::span<const std::uint8_t> payload) {
  append_section(out, static_cast<std::uint32_t>(id), payload);
}

// ---- shard file ------------------------------------------------------------

std::vector<std::uint8_t> encode_shard_file(const ShardedCheckpoint& ckpt,
                                            int k, std::uint32_t begin,
                                            std::uint32_t end,
                                            const BodyArrayFlags& flags) {
  const SimCheckpoint& g = ckpt.global;
  const std::uint32_t n = end - begin;

  ByteWriter payload;
  payload.u32(static_cast<std::uint32_t>(k));
  payload.u32(begin);
  payload.u32(end);
  payload.i64(g.step);

  std::vector<std::uint32_t> perm_slice(n);
  std::vector<Vec3> sorted_slice(n);
  std::vector<Vec3> pos(n), vel(flags.velocities ? n : 0),
      acc(flags.accel ? n : 0);
  std::vector<double> mass(flags.masses ? n : 0),
      pot(flags.potential ? n : 0);
  for (std::uint32_t t = begin; t < end; ++t) {
    const std::uint32_t i = t - begin;
    const std::uint32_t orig = g.tree.perm[t];
    perm_slice[i] = orig;
    sorted_slice[i] = g.tree.sorted_pos[t];
    pos[i] = g.bodies.positions[orig];
    if (flags.velocities) vel[i] = g.bodies.velocities[orig];
    if (flags.masses) mass[i] = g.bodies.masses[orig];
    if (flags.accel) acc[i] = g.accel[orig];
    if (flags.potential) pot[i] = g.potential[orig];
  }
  put_u32s(payload, perm_slice);
  put_vec3s(payload, sorted_slice);
  put_vec3s(payload, pos);
  put_vec3s(payload, vel);
  put_f64s(payload, mass);
  put_vec3s(payload, acc);
  put_f64s(payload, pot);

  ByteWriter out;
  out.u32(kShardMagic);
  out.u32(kShardVersion);
  out.u32(1);
  append(out, ShardSection::kShardData, payload.buffer());
  return out.take();
}

// Validates one shard file and merges its slices into the global checkpoint
// being reassembled, whose arrays are already sized to the manifest's N.
bool decode_shard_file(std::span<const std::uint8_t> data, int k,
                       const ShardFileEntry& entry,
                       const BodyArrayFlags& flags, SimCheckpoint& g) {
  const auto total = static_cast<std::uint32_t>(g.tree.perm.size());
  bool have_data = false;
  const auto visit = [&](std::uint32_t id,
                         std::span<const std::uint8_t> payload) {
    if (have_data ||
        id != static_cast<std::uint32_t>(ShardSection::kShardData))
      return false;
    ByteReader r(payload);
    if (r.u32() != static_cast<std::uint32_t>(k)) return false;
    const std::uint32_t begin = r.u32();
    const std::uint32_t end = r.u32();
    if (begin != entry.begin || end != entry.end || r.i64() != g.step)
      return false;
    const std::uint32_t n = end - begin;

    std::vector<std::uint32_t> perm_slice;
    std::vector<Vec3> sorted_slice, pos, vel, acc;
    std::vector<double> mass, pot;
    if (!get_u32s(r, perm_slice) || !get_vec3s(r, sorted_slice) ||
        !get_vec3s(r, pos) || !get_vec3s(r, vel) || !get_f64s(r, mass) ||
        !get_vec3s(r, acc) || !get_f64s(r, pot))
      return false;
    if (perm_slice.size() != n || sorted_slice.size() != n ||
        pos.size() != n || vel.size() != (flags.velocities ? n : 0) ||
        mass.size() != (flags.masses ? n : 0) ||
        acc.size() != (flags.accel ? n : 0) ||
        pot.size() != (flags.potential ? n : 0))
      return false;

    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t orig = perm_slice[i];
      if (orig >= total) return false;  // corrupt permutation entry
      const std::uint32_t t = begin + i;
      g.tree.perm[t] = orig;
      g.tree.sorted_pos[t] = sorted_slice[i];
      g.bodies.positions[orig] = pos[i];
      if (flags.velocities) g.bodies.velocities[orig] = vel[i];
      if (flags.masses) g.bodies.masses[orig] = mass[i];
      if (flags.accel) g.accel[orig] = acc[i];
      if (flags.potential) g.potential[orig] = pot[i];
    }
    return have_data = true;
  };
  return read_sections(data, kShardMagic, kShardVersion, visit, nullptr) &&
         have_data;
}

// ---- manifest --------------------------------------------------------------

std::vector<std::uint8_t> encode_manifest(
    const ShardedCheckpoint& ckpt, const BodyArrayFlags& flags,
    const std::vector<ShardFileEntry>& entries) {
  // The whole global checkpoint, through the checkpoint codec, minus the
  // O(N) per-body arrays: those live in the shard files.
  SimCheckpoint control = ckpt.global;
  control.bodies = {};
  control.accel.clear();
  control.potential.clear();
  control.tree.sorted_pos.clear();
  control.tree.perm.clear();

  ByteWriter table;
  table.u8(flags.velocities ? 1 : 0);
  table.u8(flags.masses ? 1 : 0);
  table.u8(flags.accel ? 1 : 0);
  table.u8(flags.potential ? 1 : 0);
  table.u64(entries.size());
  for (const auto& e : entries) {
    table.u32(e.begin);
    table.u32(e.end);
    table.u64(e.file_size);
    table.u32(e.file_crc);
  }

  ByteWriter out;
  out.u32(kShardMagic);
  out.u32(kShardVersion);
  out.u32(3);
  append(out, ShardSection::kGlobal, encode_checkpoint(control));
  append(out, ShardSection::kCluster, ckpt.cluster_blob);
  append(out, ShardSection::kShardTable, table.buffer());
  return out.take();
}

struct ManifestData {
  ShardedCheckpoint ckpt;  // per-body arrays still empty
  BodyArrayFlags flags;
  std::vector<ShardFileEntry> entries;
};

std::optional<ManifestData> decode_manifest(
    std::span<const std::uint8_t> data, std::string* error) {
  ManifestData m;
  bool have_global = false, have_table = false;
  const auto visit = [&](std::uint32_t id,
                         std::span<const std::uint8_t> payload) {
    switch (static_cast<ShardSection>(id)) {
      case ShardSection::kGlobal: {
        auto g = decode_checkpoint(payload);
        if (!g || !g->bodies.positions.empty() ||
            !g->bodies.velocities.empty() || !g->bodies.masses.empty() ||
            !g->accel.empty() || !g->potential.empty() ||
            !g->tree.sorted_pos.empty() || !g->tree.perm.empty())
          return false;
        m.ckpt.global = std::move(*g);
        return have_global = true;
      }
      case ShardSection::kCluster:
        m.ckpt.cluster_blob.assign(payload.begin(), payload.end());
        return true;
      case ShardSection::kShardTable: {
        ByteReader r(payload);
        m.flags.velocities = r.u8() != 0;
        m.flags.masses = r.u8() != 0;
        m.flags.accel = r.u8() != 0;
        m.flags.potential = r.u8() != 0;
        const std::uint64_t num = r.u64();
        if (num * 20 > r.remaining()) return false;
        m.entries.resize(num);
        for (auto& e : m.entries) {
          e.begin = r.u32();
          e.end = r.u32();
          e.file_size = r.u64();
          e.file_crc = r.u32();
        }
        return have_table = r.ok();
      }
      case ShardSection::kShardData:
        return false;  // belongs in a shard file, never in a manifest
    }
    return true;  // unknown section: skip (forward compatibility)
  };
  if (!read_sections(data, kShardMagic, kShardVersion, visit, error))
    return std::nullopt;
  if (!have_global || !have_table) {
    set_error(error, "missing required section");
    return std::nullopt;
  }
  // The ranges are contiguous from 0; where they end is the body count.
  std::uint32_t cursor = 0;
  for (const auto& e : m.entries) {
    if (e.begin != cursor || e.end < e.begin) {
      set_error(error, "shard ranges not contiguous");
      return std::nullopt;
    }
    cursor = e.end;
    m.ckpt.ranges.emplace_back(e.begin, e.end);
  }
  return m;
}

}  // namespace

ShardStore::ShardStore(std::string dir, int keep, std::string owner)
    : manifests_(std::move(dir), keep, std::move(owner), "manifest_",
                 ".afms") {}

std::string ShardStore::shard_path(int step, int k) const {
  char name[32];
  std::snprintf(name, sizeof name, "shard_%010d_%04d.afms", step, k);
  const std::string file = owner().empty() ? name : owner() + "_" + name;
  return (fs::path(dir()) / file).string();
}

// The coordinated set whose manifest is `path`, if the manifest AND every
// shard file validate; otherwise nullopt with `error` describing why.
std::optional<ShardedCheckpoint> ShardStore::load_set(
    const std::string& path, std::string& error) const {
  const auto bytes = read_file(path);
  if (!bytes) {
    error = path + ": unreadable";
    return std::nullopt;
  }
  std::string why;
  auto m = decode_manifest(*bytes, &why);
  if (!m) {
    error = path + ": " + why;
    return std::nullopt;
  }
  // Size the arrays the shard files fill in.
  SimCheckpoint& g = m->ckpt.global;
  const std::size_t total = m->entries.empty() ? 0 : m->entries.back().end;
  g.tree.perm.resize(total);
  g.tree.sorted_pos.resize(total);
  g.bodies.positions.resize(total);
  if (m->flags.velocities) g.bodies.velocities.resize(total);
  if (m->flags.masses) g.bodies.masses.resize(total);
  if (m->flags.accel) g.accel.resize(total);
  if (m->flags.potential) g.potential.resize(total);

  for (std::size_t k = 0; k < m->entries.size(); ++k) {
    const auto& entry = m->entries[k];
    const auto shard = read_file(shard_path(g.step, static_cast<int>(k)));
    if (!shard || shard->size() != entry.file_size ||
        crc32(*shard) != entry.file_crc ||
        !decode_shard_file(*shard, static_cast<int>(k), entry, m->flags, g)) {
      error = path + ": shard " + std::to_string(k) + " invalid";
      return std::nullopt;
    }
  }
  return std::move(m->ckpt);
}

bool ShardStore::save(const ShardedCheckpoint& ckpt, std::string* error) {
  const SimCheckpoint& g = ckpt.global;
  if (ckpt.ranges.empty() ||
      ckpt.ranges.back().second != g.tree.perm.size()) {
    set_error(error, "shard ranges do not cover the body array");
    return false;
  }
  BodyArrayFlags flags;
  flags.velocities = !g.bodies.velocities.empty();
  flags.masses = !g.bodies.masses.empty();
  flags.accel = !g.accel.empty();
  flags.potential = !g.potential.empty();

  // Shard files first; the manifest rename below is the commit point.
  std::vector<ShardFileEntry> entries(ckpt.ranges.size());
  for (std::size_t k = 0; k < ckpt.ranges.size(); ++k) {
    const auto bytes = encode_shard_file(ckpt, static_cast<int>(k),
                                         ckpt.ranges[k].first,
                                         ckpt.ranges[k].second, flags);
    entries[k].begin = ckpt.ranges[k].first;
    entries[k].end = ckpt.ranges[k].second;
    entries[k].file_size = bytes.size();
    entries[k].file_crc = crc32(bytes);
    if (!write_file_atomic(shard_path(g.step, static_cast<int>(k)), bytes,
                           error))
      return false;
  }
  if (!write_file_atomic(manifests_.path(g.step),
                         encode_manifest(ckpt, flags, entries), error))
    return false;

  // Prune OUR coordinated sets beyond the keep budget, manifest and shards.
  // Another owner's sets in the same directory are invisible to manifests_
  // and therefore never rotated away from under it.
  for (int step : manifests_.excess(g.step)) {
    std::error_code ec;
    fs::remove(manifests_.path(step), ec);
    for (int k = 0;; ++k) {
      const std::string p = shard_path(step, k);
      if (!fs::exists(p, ec)) break;
      fs::remove(p, ec);
    }
  }
  return true;
}

std::optional<ShardedCheckpoint> ShardStore::load(int step,
                                                  std::string* error) const {
  std::string e;
  auto ckpt = load_set(manifests_.path(step), e);
  if (!ckpt) set_error(error, e);
  return ckpt;
}

std::optional<ShardedCheckpoint> ShardStore::load_latest(
    std::string* error) const {
  std::string last_error = "no shard manifests in " + dir();
  for (const auto& path : manifests())
    if (auto ckpt = load_set(path, last_error)) return ckpt;
  set_error(error, last_error);
  return std::nullopt;
}

}  // namespace afmm
