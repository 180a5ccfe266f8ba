#include "gpusim/partition.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace afmm {

std::vector<std::vector<int>> partition_p2p_work(
    const std::vector<P2PWork>& work, int num_gpus, PartitionScheme scheme) {
  if (num_gpus <= 0) return {};
  const std::vector<double> weights(static_cast<std::size_t>(num_gpus), 1.0);
  return partition_p2p_work(work, weights, scheme);
}

std::vector<std::vector<int>> partition_p2p_work(
    const std::vector<P2PWork>& work, std::span<const double> weights,
    PartitionScheme scheme) {
  const int num_gpus = static_cast<int>(weights.size());
  std::vector<std::vector<int>> out(weights.size());
  if (num_gpus == 0 || work.empty()) return out;

  double weight_sum = 0.0;
  for (double w : weights) weight_sum += std::max(0.0, w);
  // Fully degraded system: assign nothing; the caller falls back to CPU P2P.
  if (weight_sum <= 0.0) return out;

  // Indices of GPUs that can take work, in device order.
  std::vector<int> active;
  for (int g = 0; g < num_gpus; ++g)
    if (weights[g] > 0.0) active.push_back(g);

  switch (scheme) {
    case PartitionScheme::kInteractionWalk: {
      std::uint64_t total = 0;
      for (const auto& w : work) total += w.interactions;
      // Per-GPU share proportional to capability. With equal weights each
      // share equals total / num_gpus, reproducing the paper's walk exactly.
      int a = 0;
      double share =
          static_cast<double>(total) * weights[active[0]] / weight_sum;
      double count = 0.0;
      for (int i = 0; i < static_cast<int>(work.size()); ++i) {
        out[active[a]].push_back(i);
        count += static_cast<double>(work[i].interactions);
        // "When the count meets or exceeds the total number of direct
        // interactions divided by the number of GPUs we start counting work
        // to send to the next GPU." The overshoot past the share is carried
        // into the next GPU's count: resetting to zero instead grants every
        // GPU a full fresh share after an oversized item, systematically
        // starving the last GPU of the accumulated difference.
        if (count >= share && a + 1 < static_cast<int>(active.size())) {
          ++a;
          count -= share;
          share =
              static_cast<double>(total) * weights[active[a]] / weight_sum;
        }
      }
      break;
    }
    case PartitionScheme::kNodeCount: {
      // Per-GPU item quota proportional to capability, filled in walk order;
      // with equal weights this reproduces the unweighted ceil(n/g) quota.
      int a = 0;
      std::size_t quota = static_cast<std::size_t>(
          std::ceil(static_cast<double>(work.size()) * weights[active[0]] /
                    weight_sum));
      std::size_t filled = 0;
      for (std::size_t i = 0; i < work.size(); ++i) {
        if (filled >= std::max<std::size_t>(quota, 1) &&
            a + 1 < static_cast<int>(active.size())) {
          ++a;
          filled = 0;
          quota = static_cast<std::size_t>(
              std::ceil(static_cast<double>(work.size()) * weights[active[a]] /
                        weight_sum));
        }
        out[active[a]].push_back(static_cast<int>(i));
        ++filled;
      }
      break;
    }
    case PartitionScheme::kLptInteractions: {
      std::vector<int> order(work.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return work[a].interactions > work[b].interactions;
      });
      // Greedy onto the GPU that would finish its (capability-normalized)
      // load soonest; with equal weights this is plain min-load LPT.
      std::vector<double> load(active.size(), 0.0);
      for (int i : order) {
        int best = 0;
        double best_cost = (load[0] + static_cast<double>(work[i].interactions)) /
                           weights[active[0]];
        for (int a = 1; a < static_cast<int>(active.size()); ++a) {
          const double cost =
              (load[a] + static_cast<double>(work[i].interactions)) /
              weights[active[a]];
          if (cost < best_cost) {
            best = a;
            best_cost = cost;
          }
        }
        out[active[best]].push_back(i);
        load[best] += static_cast<double>(work[i].interactions);
      }
      break;
    }
  }
  return out;
}

double partition_imbalance(const std::vector<P2PWork>& work,
                           const std::vector<std::vector<int>>& assignment,
                           std::span<const double> weights) {
  std::uint64_t total = 0;
  for (const auto& w : work) total += w.interactions;
  if (total == 0 || assignment.empty()) return 1.0;
  const bool equal = weights.empty();
  double weight_sum = equal ? static_cast<double>(assignment.size()) : 0.0;
  for (double w : weights) weight_sum += std::max(0.0, w);
  if (weight_sum <= 0.0) return 1.0;

  double worst = 0.0;
  for (std::size_t g = 0; g < assignment.size(); ++g) {
    const double w = equal ? 1.0 : g < weights.size() ? weights[g] : 0.0;
    std::uint64_t load = 0;
    for (int i : assignment[g]) load += work[i].interactions;
    if (w <= 0.0) continue;  // dead GPUs hold no work by contract
    const double ideal = static_cast<double>(total) * w / weight_sum;
    worst = std::max(worst, static_cast<double>(load) / ideal);
  }
  return worst > 0.0 ? worst : 1.0;
}

}  // namespace afmm
