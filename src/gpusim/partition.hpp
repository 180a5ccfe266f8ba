// Multi-GPU work division for the near-field (P2P) phase.
//
// The paper (Section III.C) walks the target-node work list in order,
// accumulating Interactions(t) = n_t * sum_{s in IList(t)} n_s, and cuts to
// the next GPU whenever the running count meets or exceeds
// total_interactions / num_gpus. No target node is ever split across GPUs.
// Two alternative partitioners are provided for the ablation bench.
//
// The weighted overload generalizes every scheme to heterogeneous or
// DEGRADED devices: weights[g] is GPU g's current relative capability (from
// MachineHealth: 0 for a dead device, clock_scale for a throttled one), and
// each GPU's target share of interactions is proportional to its weight. A
// zero-weight GPU is assigned no work at all.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "octree/traversal.hpp"

namespace afmm {

enum class PartitionScheme {
  kInteractionWalk,  // the paper's scheme
  kNodeCount,        // equal number of target nodes per GPU (naive baseline)
  kLptInteractions,  // longest-processing-time greedy on Interactions(t)
};

// assignment[g] lists indices into `work` handled by GPU g.
//
// Contract (total for all inputs):
//   * num_gpus <= 0            -> an empty outer vector; no work is assigned.
//   * work.empty()             -> num_gpus empty per-GPU vectors.
//   * otherwise every work item appears in exactly one per-GPU vector; a GPU
//     may still end up empty when there are fewer items than GPUs.
std::vector<std::vector<int>> partition_p2p_work(
    const std::vector<P2PWork>& work, int num_gpus,
    PartitionScheme scheme = PartitionScheme::kInteractionWalk);

// Capability-weighted variant: GPU g's share of interactions is proportional
// to weights[g] (weights must be nonnegative; with equal weights this is
// bit-identical to the unweighted form). Zero-weight GPUs get empty lists.
// All weights zero (machine fully degraded) -> per-GPU vectors all empty and
// NO work assigned anywhere; callers must fall back to the CPU P2P path.
std::vector<std::vector<int>> partition_p2p_work(
    const std::vector<P2PWork>& work, std::span<const double> weights,
    PartitionScheme scheme = PartitionScheme::kInteractionWalk);

// Max over GPUs of assigned interactions divided by the ideal share;
// 1.0 = perfectly balanced. The ideal share is proportional to weights[g]
// (zero-weight GPUs are skipped); empty `weights` means equal weights.
double partition_imbalance(const std::vector<P2PWork>& work,
                           const std::vector<std::vector<int>>& assignment,
                           std::span<const double> weights = {});

}  // namespace afmm
