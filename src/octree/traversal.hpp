// Dual tree traversal over the effective tree, producing the interaction
// lists that drive the six FMM operators:
//
//   * M2L pairs  (target node <- well-separated source node)
//   * P2P work   (target leaf <- list of nearby source leaves)
//
// A pair (A, B) is accepted for M2L when the multipole acceptance criterion
// holds: (R_A + R_B) <= theta * dist(center_A, center_B) with R the
// circumscribed-sphere radius of a box. Otherwise, two effective leaves
// interact directly (P2P) and any other pair recurses into the larger box.
// This covers every ordered body pair exactly once and only ever uses the
// operators of the paper (Section I.C).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "octree/octree.hpp"

namespace afmm {

struct TraversalConfig {
  // Acceptance parameter in (0, 1): smaller is more accurate and more
  // expensive. The Taylor truncation error scales like theta^(p+1).
  double theta = 0.55;

  // True when `o` produces the same lists on the same structure.
  bool same_lists_as(const TraversalConfig& o) const {
    return theta == o.theta;
  }
};

// Direct (near-field) work for one target leaf: interactions of every body
// in `target` with every body of every node in `sources` (self included,
// with the i == j pair skipped inside the kernel).
struct P2PWork {
  int target = -1;
  std::vector<int> sources;
  // Body-pair interaction count: n_target * sum(n_source); the quantity the
  // paper calls Interactions(t) and uses to split work across GPUs.
  std::uint64_t interactions = 0;
};

struct InteractionLists {
  // CSR layout: M2L source node ids for target node t are
  // m2l_sources[m2l_offset[t] .. m2l_offset[t+1]).
  std::vector<std::uint32_t> m2l_offset;
  std::vector<int> m2l_sources;
  std::vector<P2PWork> p2p;

  std::uint64_t total_m2l_pairs = 0;
  std::uint64_t total_p2p_interactions = 0;
};

// Runs the dual traversal; lists index nodes of `tree` (effective view).
InteractionLists build_interaction_lists(const AdaptiveOctree& tree,
                                         const TraversalConfig& config = {});

// The (target, source) node pairs of one dual walk, grouped by target, each
// row in walk order. M2L rows are CSR over every node id: the sources of
// target t are m2l_sources[m2l_offset[t] .. m2l_offset[t+1]). P2P rows exist
// only for targets with a pair, in order of their target's first pair: row r
// holds p2p_target[r]'s sources at p2p_offset[r] .. p2p_offset[r+1], and
// p2p_walk_index gives each of those pairs' index in the walk's P2P stream.
struct PairRows {
  std::vector<std::uint32_t> m2l_offset;
  std::vector<int> m2l_sources;
  std::vector<int> p2p_target;
  std::vector<std::uint32_t> p2p_offset;
  std::vector<int> p2p_sources;
  std::vector<std::uint32_t> p2p_walk_index;
};

// The dual walk without its cut at empty boxes: every pair the walk settles
// on `tree`'s effective structure whatever its body counts, grouped into
// `rows` (whose storage is reused). It depends on the structure and on
// config alone, so it stays valid across rebins.
void walk_count_blind(const AdaptiveOctree& tree,
                      const TraversalConfig& config, PairRows& rows);

// Writes into `out` (whose storage is reused) the lists
// build_interaction_lists(tree, config) returns, made without a walk from
// the rows walk_count_blind(tree, config, rows) wrote: drops every pair with
// a side flagged in `empty` (empty[i] must be tree.node(i).count == 0) and
// orders the P2P items by the walk index of their first kept pair. Equal
// field for field, because the walk reads only geometry and leafness
// between non-empty boxes, and every box under an empty box is empty.
void filter_interaction_lists(const AdaptiveOctree& tree,
                              const PairRows& rows,
                              std::span<const char> empty,
                              InteractionLists& out);

// Recomputes every P2P item's Interactions(t) and the list total from the
// tree's current body counts; the lists' pairs are left as they are.
void count_p2p_interactions(const AdaptiveOctree& tree,
                            InteractionLists& lists);

// Operation-application counts of one full FMM solve on `tree` with `lists`,
// exactly the M(Op) quantities of the paper's Section IV.D. Cheap to obtain
// (no numerics), which is what makes the cost-model predictions affordable.
struct OpCounts {
  std::uint64_t p2m = 0;        // leaf applications
  std::uint64_t p2m_bodies = 0; // bodies covered by P2M
  std::uint64_t m2m = 0;        // child->parent shifts
  std::uint64_t m2l = 0;        // node pair conversions
  std::uint64_t l2l = 0;        // parent->child shifts
  std::uint64_t l2p = 0;        // leaf applications
  std::uint64_t l2p_bodies = 0;
  std::uint64_t p2p_interactions = 0;  // body pairs
  std::uint64_t p2p_node_pairs = 0;
};

OpCounts count_operations(const AdaptiveOctree& tree,
                          const InteractionLists& lists);

// Field-wise arithmetic, for composing deltas of restricted recounts.
OpCounts& operator+=(OpCounts& a, const OpCounts& b);
OpCounts& operator-=(OpCounts& a, const OpCounts& b);

// OpCounts restricted to the parts of the tree affected by modifying the
// subtrees rooted at `roots`: the tree-walk terms (P2M/M2M/L2L/L2P) inside
// those subtrees plus every traversal pair with at least one side in them.
// Collapse/push_down only reroute pairs touching the modified subtrees, so
// running this before and after a batch gives the EXACT OpCounts delta of
// the batch at the cost of the affected interaction region only -- this is
// what makes the balancer's repeated cost prediction cheap (Section IV).
// `roots` must be pairwise disjoint subtrees (the balancer's batches are).
OpCounts count_operations_touching(const AdaptiveOctree& tree,
                                   std::span<const int> roots,
                                   const TraversalConfig& config = {});

}  // namespace afmm
