#include "balance/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace afmm {

void CostModel::blend(double& coef, double total, double count) {
  // Zero-count ops (a tree shape where the op never fires) and non-finite
  // totals keep the previous coefficient: no division by zero, no NaN/inf
  // poisoning the EWMA.
  if (!(count > 0.0) || !std::isfinite(total) || total < 0.0) return;
  const double sample = total / count;
  if (!std::isfinite(sample)) return;
  coef = (observations_ == 0) ? sample : (alpha_ * sample + (1 - alpha_) * coef);
}

void CostModel::observe(const ObservedStepTimes& t, int num_cores) {
  blend(c_.p2m_per_body, t.t_p2m, static_cast<double>(t.counts.p2m_bodies));
  blend(c_.m2m, t.t_m2m, static_cast<double>(t.counts.m2m));
  blend(c_.m2l, t.t_m2l, static_cast<double>(t.counts.m2l));
  blend(c_.l2l, t.t_l2l, static_cast<double>(t.counts.l2l));
  blend(c_.l2p_per_body, t.t_l2p, static_cast<double>(t.counts.l2p_bodies));
  // The near field is charged to whichever side actually ran it: gpu_seconds
  // of 0 with interactions present means the CPU fallback executed, and
  // blending 0 into the GPU coefficient would poison it toward "free".
  if (t.gpu_seconds > 0.0)
    blend(c_.p2p, t.gpu_seconds,
          static_cast<double>(t.counts.p2p_interactions));
  if (t.cpu_p2p_seconds > 0.0)
    blend(c_.p2p_cpu, t.cpu_p2p_seconds,
          static_cast<double>(t.counts.p2p_interactions));

  const double work = t.t_p2m + t.t_m2m + t.t_m2l + t.t_l2l + t.t_l2p;
  if (t.cpu_seconds > 0.0 && num_cores > 0 && std::isfinite(work)) {
    const double eff =
        std::clamp(work / (t.cpu_seconds * num_cores), 0.05, 1.0);
    c_.cpu_efficiency = (observations_ == 0)
                            ? eff
                            : (alpha_ * eff + (1 - alpha_) * c_.cpu_efficiency);
  }
  // Overlap-executor observables, learned only from steps the merged DAG
  // actually ran (they describe the relaxed-barrier schedule, which the
  // serialized path never produces).
  if (t.overlap_seconds > 0.0) {
    if (t.overlap_cpu_seconds > 0.0 && num_cores > 0 && std::isfinite(work)) {
      const double eff =
          std::clamp(work / (t.overlap_cpu_seconds * num_cores), 0.05, 1.0);
      c_.overlap_efficiency =
          (overlap_observations_ == 0)
              ? eff
              : (alpha_ * eff + (1 - alpha_) * c_.overlap_efficiency);
    }
    if (t.gpu_seconds > 0.0 && t.overlap_near_seconds > 0.0) {
      const double gap =
          std::max(0.0, t.overlap_near_seconds - t.gpu_seconds);
      if (std::isfinite(gap))
        c_.near_overhead_seconds =
            (overlap_observations_ == 0)
                ? gap
                : (alpha_ * gap + (1 - alpha_) * c_.near_overhead_seconds);
    }
    ++overlap_observations_;
  }
  ++observations_;
}

double CostModel::far_work(const OpCounts& m) const {
  return c_.p2m_per_body * static_cast<double>(m.p2m_bodies) +
         c_.m2m * static_cast<double>(m.m2m) +
         c_.m2l * static_cast<double>(m.m2l) +
         c_.l2l * static_cast<double>(m.l2l) +
         c_.l2p_per_body * static_cast<double>(m.l2p_bodies);
}

double CostModel::predict_far(const OpCounts& m, int num_cores) const {
  const double denom =
      std::max(1e-9, static_cast<double>(num_cores) * c_.cpu_efficiency);
  return far_work(m) / denom;
}

double CostModel::predict_cpu(const OpCounts& m, int num_cores) const {
  // The CPU-fallback near field serializes after the far-field sweeps and is
  // already a wall-clock coefficient (no efficiency division).
  return predict_far(m, num_cores) +
         c_.p2p_cpu * static_cast<double>(m.p2p_interactions);
}

double CostModel::predict_gpu(const OpCounts& m) const {
  return c_.p2p * static_cast<double>(m.p2p_interactions);
}

double CostModel::predict_near(const OpCounts& m) const {
  // At most one of the two coefficients is live outside the brief window
  // around a fallback transition (reset() re-learns from scratch there).
  return (c_.p2p + c_.p2p_cpu) * static_cast<double>(m.p2p_interactions);
}

double CostModel::predict_compute(const OpCounts& m, int num_cores) const {
  return std::max(predict_cpu(m, num_cores), predict_gpu(m));
}

double CostModel::predict_far_overlap(const OpCounts& m, int num_cores) const {
  // Until the overlap executor has run once, price the far field at the
  // serialized schedule's efficiency -- a pessimistic but safe stand-in.
  const double eff = overlap_observations_ > 0 ? c_.overlap_efficiency
                                               : c_.cpu_efficiency;
  const double denom = std::max(1e-9, static_cast<double>(num_cores) * eff);
  return far_work(m) / denom;
}

double CostModel::predict_compute_overlap(const OpCounts& m,
                                          int num_cores) const {
  // CPU side: overlapped far field plus the CPU-fallback near field (it
  // shares the same cores). GPU side: kernel time plus the learned
  // launch/transfer overhead of the slowest lane. The event-driven step
  // finishes when the later side drains -- max, but without the serialized
  // model's inter-sweep and near/far barriers.
  const double cpu_side = predict_far_overlap(m, num_cores) +
                          c_.p2p_cpu * static_cast<double>(m.p2p_interactions);
  const double gpu_kernel = predict_gpu(m);
  const double gpu_side =
      gpu_kernel > 0.0 ? gpu_kernel + c_.near_overhead_seconds : 0.0;
  return std::max(cpu_side, gpu_side);
}

}  // namespace afmm
