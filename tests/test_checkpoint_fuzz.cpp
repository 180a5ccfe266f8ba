// Corruption fuzzing for the checkpoint container (state/checkpoint) and the
// coordinated shard store (state/shard_store): a damaged snapshot must NEVER
// decode successfully and must never crash the decoder -- and a store must
// roll back to the newest intact snapshot (or report failure), not serve
// garbage.
//
// The v3 seal makes every single-byte flip detectable: magic and version are
// checked outright, each section's CRC covers id + size + payload, and
// trailing bytes after the last declared section reject the file (so a
// flipped section-count can't truncate validation early).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/problems.hpp"
#include "dist/distributions.hpp"
#include "state/checkpoint_detail.hpp"
#include "state/shard_store.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

namespace fs = std::filesystem;

EngineConfig base_config() {
  EngineConfig cfg;
  cfg.fmm.order = 4;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.balancer.initial_S = 32;
  cfg.dt = 1e-4;
  return cfg;
}

NodeSimulator default_node(int gpus = 2) {
  return NodeSimulator(CpuModelConfig{}, GpuSystemConfig::uniform(gpus));
}

ParticleSet test_bodies(std::size_t n = 400) {
  Rng rng(71);
  PlummerOptions opt;
  opt.scale_radius = 0.2;
  opt.velocity_scale = 0.5;
  return plummer(n, rng, opt);
}

// G = 1, softening 1e-3.
GravityEngine make_sim() {
  const EngineConfig cfg = base_config();
  return GravityEngine(cfg, GravityProblem(cfg.fmm, 1.0, 1e-3, default_node(),
                                           test_bodies()));
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::path(::testing::TempDir()) / name).string();
  fs::remove_all(dir);
  return dir;
}

std::uint32_t u32_at(const std::vector<std::uint8_t>& bytes, std::size_t off) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + off, sizeof v);
  return v;
}

std::uint64_t u64_at(const std::vector<std::uint8_t>& bytes, std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + off, sizeof v);
  return v;
}

// Walks the container structure of an INTACT encoding: offsets of the header
// fields and of every section header / payload start / section end. The
// returned list ends at bytes.size().
std::vector<std::size_t> section_boundaries(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<std::size_t> b{0, 4, 8};
  std::size_t off = 12;
  const std::uint32_t count = u32_at(bytes, 8);
  for (std::uint32_t i = 0; i < count; ++i) {
    b.push_back(off);                           // section id
    b.push_back(off + 4);                       // section size
    b.push_back(off + 12);                      // section crc
    const std::uint64_t size = u64_at(bytes, off + 4);
    b.push_back(off + 16);                      // payload start
    off += 16 + size;
    b.push_back(off);                           // section end
  }
  EXPECT_EQ(off, bytes.size());
  return b;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.good()) << path;
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

SimCheckpoint make_checkpoint(int steps = 3) {
  GravityEngine sim = make_sim();
  sim.run(steps);
  return sim.checkpoint();
}

TEST(CheckpointFuzz, IntactEncodingRoundTrips) {
  const SimCheckpoint ckpt = make_checkpoint();
  const auto bytes = encode_checkpoint(ckpt);
  std::string error;
  const auto decoded = decode_checkpoint(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->step, ckpt.step);
  EXPECT_EQ(decoded->bodies.size(), ckpt.bodies.size());
}

TEST(CheckpointFuzz, EveryByteFlipIsDetected) {
  const auto bytes = encode_checkpoint(make_checkpoint());
  ASSERT_GT(bytes.size(), 64u);

  // Every structural boundary plus a stride-sampled sweep of the interior.
  std::vector<std::size_t> offsets = section_boundaries(bytes);
  offsets.pop_back();  // == bytes.size()
  for (std::size_t off = 0; off < bytes.size(); off += 97)
    offsets.push_back(off);
  offsets.push_back(bytes.size() - 1);

  for (std::size_t off : offsets) {
    auto mutant = bytes;
    mutant[off] ^= 0xA5;
    std::string error;
    const auto decoded = decode_checkpoint(mutant, &error);
    EXPECT_FALSE(decoded.has_value())
        << "byte flip at offset " << off << " decoded successfully";
    EXPECT_FALSE(error.empty()) << "no error for flip at offset " << off;
  }
}

TEST(CheckpointFuzz, EveryTruncationIsDetected) {
  const auto bytes = encode_checkpoint(make_checkpoint());

  std::vector<std::size_t> lengths = section_boundaries(bytes);
  lengths.pop_back();  // full length is the valid file
  for (std::size_t len : {std::size_t{1}, std::size_t{5}, std::size_t{13},
                          bytes.size() / 2, bytes.size() - 1})
    lengths.push_back(len);
  for (std::size_t len = 0; len < bytes.size(); len += 97)
    lengths.push_back(len);

  for (std::size_t len : lengths) {
    auto mutant = bytes;
    mutant.resize(len);
    std::string error;
    EXPECT_FALSE(decode_checkpoint(mutant, &error).has_value())
        << "truncation to " << len << " of " << bytes.size()
        << " decoded successfully";
  }
}

TEST(CheckpointFuzz, AppendedTrailingBytesAreDetected) {
  const auto bytes = encode_checkpoint(make_checkpoint());
  auto mutant = bytes;
  mutant.push_back(0);
  std::string error;
  EXPECT_FALSE(decode_checkpoint(mutant, &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(CheckpointFuzz, StoreFallsBackToPreviousGoodSnapshot) {
  GravityEngine sim = make_sim();
  CheckpointStore store(fresh_dir("fuzz_store"), /*keep=*/3);
  sim.run(2);
  const SimCheckpoint older = sim.checkpoint();
  ASSERT_TRUE(store.save(older));
  sim.run(2);
  ASSERT_TRUE(store.save(sim.checkpoint()));

  const auto files = store.files();
  ASSERT_EQ(files.size(), 2u);  // newest first
  auto bytes = read_file(files[0]);
  bytes[bytes.size() / 2] ^= 0xFF;
  write_file(files[0], bytes);

  std::string error;
  const auto loaded = store.load_latest(&error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->step, older.step);

  // Corrupt the older one too: nothing valid remains.
  auto bytes2 = read_file(files[1]);
  bytes2.resize(bytes2.size() / 3);
  write_file(files[1], bytes2);
  EXPECT_FALSE(store.load_latest(&error).has_value());
}

// Overwrites the value at `at` in the payload of section `id` and re-seals
// the section's CRC, so only the payload's own checks stand between the
// value and the decoder.
template <class T>
void set_sealed(std::vector<std::uint8_t>& bytes, std::uint32_t id,
                std::size_t at, T value) {
  const std::vector<std::size_t> b = section_boundaries(bytes);
  for (std::size_t s = 3; s + 4 < b.size(); s += 5) {
    if (u32_at(bytes, b[s]) != id) continue;
    const std::size_t payload = b[s + 3];
    std::memcpy(bytes.data() + payload + at, &value, sizeof value);
    const std::uint32_t crc = crc32_extend(
        crc32({bytes.data() + b[s], 12}),
        {bytes.data() + payload, b[s + 4] - payload});
    std::memcpy(bytes.data() + b[s + 2], &crc, sizeof crc);
    return;
  }
  ADD_FAILURE() << "no section " << id;
}

// Counts whose product with the element size wraps past 2^64 to a value
// that fits the payload: the length check must not multiply.
struct OversizedCount {
  std::uint32_t section;
  std::size_t at;  // offset of the count in the section payload
  std::uint64_t count;
};
constexpr OversizedCount kOversizedCounts[] = {
    {2, 0, 1ull << 61},                // bodies: positions (24 bytes each)
    {5, 40, 1ull << 59},               // tree: nodes, after the config
    {7, 0, 0x1C71C71C71C71C72ull},     // health: GPUs (9 bytes each)
    {9, 0, 1ull << 61},                // RNG words (8 bytes each)
};

TEST(CheckpointFuzz, OversizedCountsAreMalformedNotThrown) {
  const auto bytes = encode_checkpoint(make_checkpoint());
  for (const OversizedCount& c : kOversizedCounts) {
    auto mutant = bytes;
    set_sealed(mutant, c.section, c.at, c.count);
    std::string error;
    std::optional<SimCheckpoint> decoded;
    EXPECT_NO_THROW(decoded = decode_checkpoint(mutant, &error))
        << "section " << c.section;
    EXPECT_FALSE(decoded.has_value()) << "section " << c.section;
    EXPECT_EQ(error, "malformed section " + std::to_string(c.section));
  }
}

TEST(CheckpointFuzz, EnumAboveItsLargestValueIsMalformed) {
  const auto bytes = encode_checkpoint(make_checkpoint());
  // The meta section opens with the SimKind, the balancer's with the LbState.
  for (const std::uint32_t section : {1u, 6u}) {
    auto mutant = bytes;
    set_sealed(mutant, section, 0, std::uint32_t{3});
    std::string error;
    EXPECT_FALSE(decode_checkpoint(mutant, &error).has_value());
    EXPECT_EQ(error, "malformed section " + std::to_string(section));
  }
}

TEST(CheckpointFuzz, SectionWithBytesPastItsFieldsIsMalformed) {
  const auto bytes = encode_checkpoint(make_checkpoint());
  // Re-seal every section, one byte longer in the injector's (section 8).
  ByteWriter out;
  out.u32(kCheckpointMagic);
  out.u32(kCheckpointVersion);
  out.u32(u32_at(bytes, 8));  // section count
  ASSERT_TRUE(ckpt::read_sections(
      bytes, kCheckpointMagic, kCheckpointVersion,
      [&](std::uint32_t id, std::span<const std::uint8_t> payload) {
        std::vector<std::uint8_t> p(payload.begin(), payload.end());
        if (id == 8) p.push_back(0);
        ckpt::append_section(out, id, p);
        return true;
      },
      nullptr));
  std::string error;
  EXPECT_FALSE(decode_checkpoint(out.buffer(), &error).has_value());
  EXPECT_EQ(error, "malformed section 8");
}

TEST(CheckpointFuzz, StoreSkipsASnapshotWithAnOversizedCount) {
  GravityEngine sim = make_sim();
  CheckpointStore store(fresh_dir("fuzz_oversized"), /*keep=*/3);
  sim.run(2);
  const SimCheckpoint older = sim.checkpoint();
  ASSERT_TRUE(store.save(older));
  sim.run(2);
  ASSERT_TRUE(store.save(sim.checkpoint()));

  const std::string newest = store.files().front();
  const auto original = read_file(newest);
  for (const OversizedCount& c : kOversizedCounts) {
    auto mutant = original;
    set_sealed(mutant, c.section, c.at, c.count);
    write_file(newest, mutant);
    std::optional<SimCheckpoint> loaded;
    std::string error;
    EXPECT_NO_THROW(loaded = store.load_latest(&error))
        << "section " << c.section;
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->step, older.step) << "section " << c.section;
  }
}

// ---- coordinated shard sets ------------------------------------------------

struct ShardFixture {
  std::string dir;
  int older_step = 0;
  int newer_step = 0;
  std::string newest_manifest;
  std::string newest_shard0;
};

ShardFixture make_shard_sets(const std::string& name) {
  ShardFixture fx;
  fx.dir = fresh_dir(name);
  EngineConfig cfg = base_config();
  ClusterConfig cc;
  cc.num_nodes = 2;
  GravityProblem problem(cfg.fmm, 1.0, 1e-3, default_node(), test_bodies());
  ClusterEngine<GravityProblem> cluster(cfg, cc, std::move(problem));

  ShardStore store(fx.dir, /*keep=*/3);
  const ShardedCheckpoint older = cluster.make_checkpoint();
  EXPECT_TRUE(store.save(older));
  cluster.run(2);
  const ShardedCheckpoint newer = cluster.make_checkpoint();
  EXPECT_TRUE(store.save(newer));
  fx.older_step = older.global.step;
  fx.newer_step = newer.global.step;

  char buf[48];
  std::snprintf(buf, sizeof buf, "manifest_%010d.afms", fx.newer_step);
  fx.newest_manifest = (fs::path(fx.dir) / buf).string();
  std::snprintf(buf, sizeof buf, "shard_%010d_%04d.afms", fx.newer_step, 0);
  fx.newest_shard0 = (fs::path(fx.dir) / buf).string();
  return fx;
}

TEST(ShardStoreFuzz, ManifestFlipsRollTheWholeSetBack) {
  const ShardFixture fx = make_shard_sets("fuzz_manifest");
  ShardStore store(fx.dir);
  const auto original = read_file(fx.newest_manifest);
  ASSERT_GT(original.size(), 64u);

  std::vector<std::size_t> offsets{0, 4, 8, 12, original.size() - 1};
  for (std::size_t off = 0; off < original.size(); off += 997)
    offsets.push_back(off);

  for (std::size_t off : offsets) {
    auto mutant = original;
    mutant[off] ^= 0x5A;
    write_file(fx.newest_manifest, mutant);
    std::string error;
    const auto loaded = store.load_latest(&error);
    ASSERT_TRUE(loaded.has_value())
        << "flip at " << off << " lost the older set too: " << error;
    EXPECT_EQ(loaded->global.step, fx.older_step)
        << "flip at " << off << " did not invalidate the newest manifest";
  }
  write_file(fx.newest_manifest, original);
  const auto restored = store.load_latest();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->global.step, fx.newer_step);
}

TEST(ShardStoreFuzz, ManifestTruncationsRollTheWholeSetBack) {
  const ShardFixture fx = make_shard_sets("fuzz_manifest_trunc");
  ShardStore store(fx.dir);
  const auto original = read_file(fx.newest_manifest);

  for (std::size_t len :
       {std::size_t{0}, std::size_t{3}, std::size_t{12}, original.size() / 2,
        original.size() - 1}) {
    auto mutant = original;
    mutant.resize(len);
    write_file(fx.newest_manifest, mutant);
    std::string error;
    const auto loaded = store.load_latest(&error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->global.step, fx.older_step) << "truncation to " << len;
  }
}

TEST(ShardStoreFuzz, ShardFileDamageRollsTheWholeSetBack) {
  const ShardFixture fx = make_shard_sets("fuzz_shard_file");
  ShardStore store(fx.dir);
  const auto original = read_file(fx.newest_shard0);
  ASSERT_GT(original.size(), 64u);

  std::vector<std::size_t> offsets{0, 4, 8, original.size() - 1};
  for (std::size_t off = 0; off < original.size(); off += 997)
    offsets.push_back(off);

  for (std::size_t off : offsets) {
    auto mutant = original;
    mutant[off] ^= 0x5A;
    write_file(fx.newest_shard0, mutant);
    std::string error;
    const auto loaded = store.load_latest(&error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->global.step, fx.older_step)
        << "shard-file flip at " << off << " still served the newest set";
  }

  // Truncation and outright deletion as well.
  auto mutant = original;
  mutant.resize(original.size() / 2);
  write_file(fx.newest_shard0, mutant);
  auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->global.step, fx.older_step);

  fs::remove(fx.newest_shard0);
  loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->global.step, fx.older_step);
}

TEST(ShardStoreFuzz, OversizedShardTableCountRollsTheWholeSetBack) {
  const ShardFixture fx = make_shard_sets("fuzz_shard_table_count");
  ShardStore store(fx.dir);
  auto mutant = read_file(fx.newest_manifest);
  // The shard table (section 3) holds four flag bytes, then the entry
  // count; 2^62 entries of 20 bytes wrap to a zero-byte product.
  set_sealed(mutant, 3, 4, 1ull << 62);
  write_file(fx.newest_manifest, mutant);
  std::optional<ShardedCheckpoint> loaded;
  std::string error;
  EXPECT_NO_THROW(loaded = store.load_latest(&error));
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->global.step, fx.older_step);
}

}  // namespace
}  // namespace afmm
