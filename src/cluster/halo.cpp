#include "cluster/halo.hpp"

#include <algorithm>

#include "expansion/multi_index.hpp"
#include "sdc/sdc.hpp"

namespace afmm {

namespace {

// Owner of tree node `id`: the shard owning the first body of its span.
// Zero-count nodes contribute no halo traffic and are skipped by callers.
int owner(const AdaptiveOctree& tree, const ShardMap& map, int id) {
  return map.owner_of(tree.node(id).begin);
}

// Payload-checksum contribution of one shipped item (leaf bodies or one
// multipole expansion): a mix of the node descriptor that pins down exactly
// which bytes go on the wire. XOR-folded per (src, dst) pair, so aggregation
// order does not matter.
std::uint64_t item_check(const AdaptiveOctree& tree, int node, bool bodies) {
  const auto& n = tree.node(node);
  std::uint64_t h = splitmix64(static_cast<std::uint64_t>(node) * 2 +
                               (bodies ? 1 : 0));
  h ^= splitmix64(h ^ n.begin);
  h ^= splitmix64(h ^ n.count);
  return h;
}

}  // namespace

HaloPlan build_halo_plan(const AdaptiveOctree& tree,
                         const InteractionLists& lists, const ShardMap& map,
                         int order, int nrhs) {
  HaloPlan plan;
  const int num_shards = map.num_shards();
  if (num_shards <= 1 || map.num_bodies() == 0) return plan;

  // (source node, dst shard) pairs, deduplicated after collection. Encoded
  // as node * num_shards + dst so one sort covers both fields.
  std::vector<std::uint64_t> body_pairs;
  std::vector<std::uint64_t> pole_pairs;

  for (const auto& w : lists.p2p) {
    if (tree.node(w.target).count == 0) continue;
    const int dst = owner(tree, map, w.target);
    for (int s : w.sources) {
      if (tree.node(s).count == 0) continue;
      if (owner(tree, map, s) != dst)
        body_pairs.push_back(static_cast<std::uint64_t>(s) *
                                 static_cast<std::uint64_t>(num_shards) +
                             static_cast<std::uint64_t>(dst));
    }
  }

  if (!lists.m2l_offset.empty()) {
    for (int t = 0; t < tree.num_nodes(); ++t) {
      const auto lo = lists.m2l_offset[static_cast<std::size_t>(t)];
      const auto hi = lists.m2l_offset[static_cast<std::size_t>(t) + 1];
      if (lo == hi || tree.node(t).count == 0) continue;
      const int dst = owner(tree, map, t);
      for (auto i = lo; i < hi; ++i) {
        const int s = lists.m2l_sources[i];
        if (tree.node(s).count == 0) continue;
        if (owner(tree, map, s) != dst)
          pole_pairs.push_back(static_cast<std::uint64_t>(s) *
                                   static_cast<std::uint64_t>(num_shards) +
                               static_cast<std::uint64_t>(dst));
      }
    }
  }

  std::sort(body_pairs.begin(), body_pairs.end());
  body_pairs.erase(std::unique(body_pairs.begin(), body_pairs.end()),
                   body_pairs.end());
  std::sort(pole_pairs.begin(), pole_pairs.end());
  pole_pairs.erase(std::unique(pole_pairs.begin(), pole_pairs.end()),
                   pole_pairs.end());

  // Aggregate bytes (and the payload checksum) per ordered (src shard, dst
  // shard) pair.
  std::vector<std::uint64_t> pair_bytes(
      static_cast<std::size_t>(num_shards) *
          static_cast<std::size_t>(num_shards),
      0);
  std::vector<std::uint64_t> pair_check(pair_bytes.size(), 0);
  const auto body_bytes = static_cast<std::uint64_t>(3 + nrhs) * 8;
  const auto pole_bytes =
      static_cast<std::uint64_t>(MultiIndexSet::count(order) * nrhs) * 8;
  for (std::uint64_t p : body_pairs) {
    const int node = static_cast<int>(p / static_cast<std::uint64_t>(num_shards));
    const int dst = static_cast<int>(p % static_cast<std::uint64_t>(num_shards));
    const int src = owner(tree, map, node);
    const std::uint64_t bodies = tree.node(node).count;
    const std::size_t pair = static_cast<std::size_t>(src) *
                                 static_cast<std::size_t>(num_shards) +
                             static_cast<std::size_t>(dst);
    plan.body_halo += bodies;
    pair_bytes[pair] += bodies * body_bytes;
    pair_check[pair] ^= item_check(tree, node, /*bodies=*/true);
  }
  for (std::uint64_t p : pole_pairs) {
    const int node = static_cast<int>(p / static_cast<std::uint64_t>(num_shards));
    const int dst = static_cast<int>(p % static_cast<std::uint64_t>(num_shards));
    const int src = owner(tree, map, node);
    const std::size_t pair = static_cast<std::size_t>(src) *
                                 static_cast<std::size_t>(num_shards) +
                             static_cast<std::size_t>(dst);
    ++plan.multipole_halo;
    pair_bytes[pair] += pole_bytes;
    pair_check[pair] ^= item_check(tree, node, /*bodies=*/false);
  }

  for (int src = 0; src < num_shards; ++src)
    for (int dst = 0; dst < num_shards; ++dst) {
      const std::uint64_t bytes =
          pair_bytes[static_cast<std::size_t>(src) *
                         static_cast<std::size_t>(num_shards) +
                     static_cast<std::size_t>(dst)];
      if (bytes == 0) continue;
      HaloMessage m;
      m.src = src;
      m.dst = dst;
      m.bytes = bytes;
      m.key = static_cast<std::uint64_t>(src) *
                  static_cast<std::uint64_t>(num_shards) +
              static_cast<std::uint64_t>(dst);
      m.payload_check = pair_check[static_cast<std::size_t>(src) *
                                       static_cast<std::size_t>(num_shards) +
                                   static_cast<std::size_t>(dst)];
      plan.messages.push_back(m);
      plan.total_bytes += bytes;
    }
  return plan;
}

}  // namespace afmm
