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

void fields(auto& ar, Is<ShardFileEntry> auto& e) {
  ar(e.begin, e.end, e.file_size, e.file_crc);
}

// Which per-body arrays the checkpoint carries (gravity has all of them,
// Stokes has no masses and no derived fields). The shard table records the
// flags; every shard file must then carry matching slices.
struct BodyArrayFlags {
  bool velocities = false;
  bool masses = false;
  bool accel = false;
  bool potential = false;
};

void fields(auto& ar, Is<BodyArrayFlags> auto& f) {
  ar(f.velocities, f.masses, f.accel, f.potential);
}

// One shard file's payload: which shard, its tree-order range and step,
// then the range's slice of every per-body array, gathered to tree order.
struct ShardPayload {
  std::uint32_t k = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::int64_t step = 0;
  std::vector<std::uint32_t> perm;
  std::vector<Vec3> sorted_pos, positions, velocities;
  std::vector<double> masses;
  std::vector<Vec3> accel;
  std::vector<double> potential;
};

void fields(auto& ar, Is<ShardPayload> auto& p) {
  ar(p.k, p.begin, p.end, p.step, p.perm, p.sorted_pos, p.positions,
     p.velocities, p.masses, p.accel, p.potential);
}

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

  ShardPayload p;
  p.k = static_cast<std::uint32_t>(k);
  p.begin = begin;
  p.end = end;
  p.step = g.step;
  p.perm.resize(n);
  p.sorted_pos.resize(n);
  p.positions.resize(n);
  p.velocities.resize(flags.velocities ? n : 0);
  p.masses.resize(flags.masses ? n : 0);
  p.accel.resize(flags.accel ? n : 0);
  p.potential.resize(flags.potential ? n : 0);
  for (std::uint32_t t = begin; t < end; ++t) {
    const std::uint32_t i = t - begin;
    const std::uint32_t orig = g.tree.perm[t];
    p.perm[i] = orig;
    p.sorted_pos[i] = g.tree.sorted_pos[t];
    p.positions[i] = g.bodies.positions[orig];
    if (flags.velocities) p.velocities[i] = g.bodies.velocities[orig];
    if (flags.masses) p.masses[i] = g.bodies.masses[orig];
    if (flags.accel) p.accel[i] = g.accel[orig];
    if (flags.potential) p.potential[i] = g.potential[orig];
  }
  ByteWriter payload;
  Put{payload}(p);

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
    ShardPayload p;
    Get{r}(p);
    const std::uint32_t n = entry.end - entry.begin;
    if (!r.ok() || r.remaining() != 0 ||
        p.k != static_cast<std::uint32_t>(k) || p.begin != entry.begin ||
        p.end != entry.end || p.step != g.step || p.perm.size() != n ||
        p.sorted_pos.size() != n || p.positions.size() != n ||
        p.velocities.size() != (flags.velocities ? n : 0) ||
        p.masses.size() != (flags.masses ? n : 0) ||
        p.accel.size() != (flags.accel ? n : 0) ||
        p.potential.size() != (flags.potential ? n : 0))
      return false;

    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t orig = p.perm[i];
      if (orig >= total) return false;  // corrupt permutation entry
      const std::uint32_t t = p.begin + i;
      g.tree.perm[t] = orig;
      g.tree.sorted_pos[t] = p.sorted_pos[i];
      g.bodies.positions[orig] = p.positions[i];
      if (flags.velocities) g.bodies.velocities[orig] = p.velocities[i];
      if (flags.masses) g.bodies.masses[orig] = p.masses[i];
      if (flags.accel) g.accel[orig] = p.accel[i];
      if (flags.potential) g.potential[orig] = p.potential[i];
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
  Put{table}(flags, entries);

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
        Get{r}(m.flags, m.entries);
        return have_table = r.ok() && r.remaining() == 0;
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
