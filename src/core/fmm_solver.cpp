#include "core/fmm_solver.hpp"

#include <omp.h>

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "util/lanes.hpp"

namespace afmm {

namespace {
// Subtrees smaller than this recurse serially instead of spawning a task.
constexpr std::uint32_t kTaskCutoff = 256;
}  // namespace

HarmonicFarField::HarmonicFarField(const FmmConfig& config)
    : config_(config), ctx_(config.order) {}

void HarmonicFarField::evaluate(const AdaptiveOctree& tree,
                                const InteractionLists& lists,
                                std::span<const std::vector<double>> charges,
                                std::vector<std::vector<PointValue>>& out,
                                OpTimers* timers, const SdcHooks* sdc) const {
  const int nrhs = static_cast<int>(charges.size());
  const std::size_t nbody = tree.num_bodies();
  for (const auto& q : charges)
    if (q.size() != nbody)
      throw std::invalid_argument("HarmonicFarField: charge vector size");

  const int nc = ctx_.ncoef();
  const int nn = tree.num_nodes();
  const std::size_t per_node = static_cast<std::size_t>(nrhs) * nc;
  std::vector<double> M(per_node * nn, 0.0);
  std::vector<double> L(per_node * nn, 0.0);
  const auto pos = tree.sorted_positions();

  out.assign(nrhs, std::vector<PointValue>(nbody));

  auto mcoef = [&](int node, int r) {
    return M.data() + per_node * node + static_cast<std::size_t>(r) * nc;
  };
  auto lcoef = [&](int node, int r) {
    return L.data() + per_node * node + static_cast<std::size_t>(r) * nc;
  };

  // ---- up sweep: P2M at effective leaves, M2M on the way back up ---------
  auto upsweep = [&](auto&& self, int id) -> void {
    const OctreeNode& n = tree.node(id);
    if (n.count == 0) return;
    if (tree.is_effective_leaf(id)) {
      OpTimers::Scoped timer(timers, FmmOp::kP2M, n.count);
      for (int r = 0; r < nrhs; ++r)
        ctx_.p2m(n.center, pos.data() + n.begin, charges[r].data() + n.begin,
                 static_cast<int>(n.count), mcoef(id, r));
      return;
    }
    for (int c : n.children) {
      const bool spawn = tree.node(c).count > kTaskCutoff;
      if (spawn) {
#pragma omp task firstprivate(c)
        self(self, c);
      } else {
        self(self, c);
      }
    }
#pragma omp taskwait
    std::uint64_t shifted = 0;
    for (int c : n.children)
      shifted += tree.node(c).count > 0 ? 1 : 0;
    OpTimers::Scoped timer(timers, FmmOp::kM2M, shifted);
    for (int c : n.children) {
      const OctreeNode& ch = tree.node(c);
      if (ch.count == 0) continue;
      for (int r = 0; r < nrhs; ++r)
        ctx_.m2m(ch.center, n.center, mcoef(c, r), mcoef(id, r));
    }
  };

  // ---- M2L: one flat pass between the sweeps, W target nodes per group
  // (W = lane_width(), read once per evaluate: 4 with AVX2, else 2). The
  // nodes with a list are sorted longest list first, ties by id, so a
  // group's lanes end close together. Lane l walks node t[l]'s list in list
  // order, one m2l_lanes<W> step per source, in a lane-interleaved block
  // loaded from L[t[l]] and stored back on the step its list ends; after
  // that the lane repeats its last source and its output is dropped. A
  // short last group fills its spare lanes with a live node, never stored.
  // So every L[id] gets its M2L terms in list order, as one m2l_multi per
  // pair gives them, and then its L2L term in the down sweep.
  auto list_len = [&](int id) {
    return lists.m2l_offset[id + 1] - lists.m2l_offset[id];
  };
  std::vector<int> targets;
  for (int id = 0; id < nn; ++id)
    if (list_len(id) > 0) targets.push_back(id);
  std::sort(targets.begin(), targets.end(), [&](int a, int b) {
    return list_len(a) != list_len(b) ? list_len(a) > list_len(b) : a < b;
  });
  const int width = lane_width();
  const std::size_t groups = (targets.size() + width - 1) / width;

  auto m2l_group = [&](std::size_t g, double* block, auto lanes) {
    constexpr int W = decltype(lanes)::value;
    const std::size_t first = g * W;
    const int live = static_cast<int>(std::min<std::size_t>(
        W, targets.size() - first));
    int t[W];
    std::uint32_t len[W];
    std::uint64_t pairs = 0;
    for (int l = 0; l < W; ++l) {
      t[l] = targets[first + std::min(l, live - 1)];
      len[l] = list_len(t[l]);
      if (l < live) pairs += len[l];
    }
    OpTimers::Scoped timer(timers, FmmOp::kM2L, pairs);
    for (std::size_t k = 0; k < per_node; ++k)
      for (int l = 0; l < W; ++l) block[k * W + l] = L[per_node * t[l] + k];
    // Lane 0 holds the group's longest list.
    for (std::uint32_t step = 0; step < len[0]; ++step) {
      Vec3 r[W];
      const double* m[W];
      for (int l = 0; l < W; ++l) {
        const int s = lists.m2l_sources[lists.m2l_offset[t[l]] +
                                        std::min(step, len[l] - 1)];
        r[l] = tree.node(t[l]).center - tree.node(s).center;
        m[l] = mcoef(s, 0);
      }
      ctx_.m2l_lanes<W>(r, m, block, nrhs, nc);
      for (int l = 0; l < live; ++l)
        if (step + 1 == len[l])
          for (std::size_t k = 0; k < per_node; ++k)
            L[per_node * t[l] + k] = block[k * W + l];
    }
  };

  // ---- down sweep: L2L at each node, L2P at effective leaves ------------
  auto downsweep = [&](auto&& self, int id) -> void {
    const OctreeNode& n = tree.node(id);
    if (n.count == 0) return;
    if (n.parent >= 0) {
      OpTimers::Scoped timer(timers, FmmOp::kL2L);
      for (int r = 0; r < nrhs; ++r)
        ctx_.l2l(tree.node(n.parent).center, n.center, lcoef(n.parent, r),
                 lcoef(id, r));
    }
    if (tree.is_effective_leaf(id)) {
      OpTimers::Scoped timer(timers, FmmOp::kL2P, n.count);
      for (std::uint32_t b = n.begin; b < n.begin + n.count; ++b)
        for (int r = 0; r < nrhs; ++r)
          out[r][b] = ctx_.l2p(n.center, lcoef(id, r), pos[b]);
      return;
    }
    for (int c : n.children) {
      const bool spawn = tree.node(c).count > kTaskCutoff;
      if (spawn) {
#pragma omp task firstprivate(c)
        self(self, c);
      } else {
        self(self, c);
      }
    }
#pragma omp taskwait
  };

  // ---- SDC guard between the sweeps (sdc/): the multipoles are complete
  // and the downward pass has not consumed them yet, so this is the one
  // point where a corrupted expansion can be caught and surgically repaired
  // before it fans out into every local expansion under the MAC.
  //
  // Detection is layered: (a) a per-node checksum taken right after the
  // upsweep (production time) and re-verified here catches ANY flipped bit
  // and doubles as the bit-exact repair target; (b) the monopole consistency
  // tripwire (parent monopole == in-order sum of children's -- exact, see
  // operators.hpp) and (c) the optional full M2M re-aggregation check catch
  // corruption that happens where checksums can't see (e.g. a miscomputed
  // M2M itself). Repair re-runs the corrupted subtree's upward pass from
  // the still-intact bodies/charges and re-verifies against the stored
  // checksum. All of this only READS clean data, so fault-free evaluates
  // are bit-identical with the guard on or off.
  auto sdc_guard = [&](auto&& run_upsweep) {
    const SdcDetectConfig* det = sdc->detect;
    const bool checks = det && (det->expansion_checks ||
                                det->expansion_reaggregation);
    // Effective nodes with bodies, preorder (parents before children).
    std::vector<int> eff;
    {
      std::vector<int> stack{tree.root()};
      while (!stack.empty()) {
        const int id = stack.back();
        stack.pop_back();
        const OctreeNode& n = tree.node(id);
        if (n.count == 0) continue;
        eff.push_back(id);
        if (tree.is_effective_leaf(id)) continue;
        for (auto it = n.children.rbegin(); it != n.children.rend(); ++it)
          stack.push_back(*it);
      }
    }
    if (eff.empty()) return;

    std::vector<std::uint64_t> sums;
    if (checks) {
      sums.resize(eff.size());
      for (std::size_t i = 0; i < eff.size(); ++i)
        sums[i] =
            fnv1a(M.data() + per_node * eff[i], per_node * sizeof(double));
    }

    if (sdc->inject) {
      // kSdcExpansion: flip one mantissa/exponent bit of one coefficient of
      // one deterministic victim node -- after the checksums were taken,
      // exactly like device memory rotting between production and use.
      const int id = eff[sdc_pick(sdc->seed, eff.size())];
      double* block = M.data() + per_node * id;
      sdc_flip_double_bit(block[sdc_pick(sdc->seed >> 17, per_node)],
                          static_cast<int>(sdc->seed >> 33));
      if (sdc->report) ++sdc->report->injected;
    }
    if (!checks) return;

    std::vector<char> bad(eff.size(), 0);
    bool any_checksum_bad = false;
    for (std::size_t i = 0; i < eff.size(); ++i) {
      if (fnv1a(M.data() + per_node * eff[i], per_node * sizeof(double)) !=
          sums[i]) {
        bad[i] = 1;
        any_checksum_bad = true;
      }
    }

    // Consistency tripwires: only when the checksums saw nothing -- a
    // checksum-flagged child would otherwise also trip its parent's
    // re-aggregation and double-count one corruption as two.
    if (!any_checksum_bad) {
      std::vector<const double*> child_M;
      std::vector<Vec3> child_centers;
      std::vector<double> scratch;
      for (std::size_t i = 0; i < eff.size(); ++i) {
        const int id = eff[i];
        if (tree.is_effective_leaf(id)) continue;
        const OctreeNode& n = tree.node(id);
        for (int r = 0; r < nrhs && !bad[i]; ++r) {
          child_M.clear();
          child_centers.clear();
          for (int c : n.children) {
            if (tree.node(c).count == 0) continue;
            child_M.push_back(mcoef(c, r));
            child_centers.push_back(tree.node(c).center);
          }
          if (det->expansion_checks &&
              ctx_.reaggregated_monopole(child_M.data(),
                                         static_cast<int>(child_M.size())) !=
                  mcoef(id, r)[0])
            bad[i] = 1;
          if (!bad[i] && det->expansion_reaggregation &&
              !ctx_.m2m_reaggregation_matches(
                  child_centers.data(), child_M.data(),
                  static_cast<int>(child_M.size()), n.center, mcoef(id, r),
                  scratch))
            bad[i] = 1;
        }
      }
    }

    for (std::size_t i = 0; i < eff.size(); ++i) {
      if (!bad[i]) continue;
      if (sdc->report) ++sdc->report->detected;
      // Surgical repair: zero the effective subtree's multipoles and re-run
      // just its upward pass from the intact bodies/charges.
      auto zero_subtree = [&](auto&& self, int id) -> void {
        const OctreeNode& n = tree.node(id);
        if (n.count == 0) return;
        std::fill_n(M.data() + per_node * id, per_node, 0.0);
        if (tree.is_effective_leaf(id)) return;
        for (int c : n.children) self(self, c);
      };
      zero_subtree(zero_subtree, eff[i]);
      run_upsweep(eff[i]);
      const bool fixed = fnv1a(M.data() + per_node * eff[i],
                               per_node * sizeof(double)) == sums[i];
      if (sdc->report) ++(fixed ? sdc->report->repaired
                                : sdc->report->unrepaired);
    }
  };

  if (tree.empty()) return;
#pragma omp parallel
  {
#pragma omp single
    {
      upsweep(upsweep, tree.root());
      if (sdc && (sdc->inject ||
                  (sdc->detect && (sdc->detect->expansion_checks ||
                                   sdc->detect->expansion_reaggregation))))
        sdc_guard([&](int id) { upsweep(upsweep, id); });
    }
    std::vector<double> block(per_node * width);
#pragma omp for schedule(dynamic)
    for (std::size_t g = 0; g < groups; ++g) {
      if (width == 4)
        m2l_group(g, block.data(), std::integral_constant<int, 4>{});
      else
        m2l_group(g, block.data(), std::integral_constant<int, 2>{});
    }
#pragma omp single
    downsweep(downsweep, tree.root());
  }
}

SolveStats make_stats(const AdaptiveOctree& tree,
                      const InteractionLists& lists) {
  SolveStats s;
  s.nodes = tree.num_nodes();
  s.effective_leaves = static_cast<int>(tree.effective_leaves().size());
  s.depth = tree.effective_depth();
  s.m2l_pairs = lists.total_m2l_pairs;
  s.p2p_interactions = lists.total_p2p_interactions;
  return s;
}

template <class Kernel>
FmmSolver<Kernel>::FmmSolver(const FmmConfig& config, NodeSimulator node,
                             Kernel kernel)
    : far_(config), node_(std::move(node)), kernel_(kernel) {}

template <class Kernel>
void FmmSolver<Kernel>::run(const AdaptiveOctree& tree,
                            std::span<const std::vector<double>> rhs,
                            std::span<const Source> sources, SolveOutcome& out,
                            std::vector<std::vector<PointValue>>& far,
                            std::vector<Accum>& near) const {
  auto& cache = external_cache_ ? *external_cache_ : own_cache_;
  const InteractionLists& lists = cache.get(tree, far_.config().traversal);
  const int nrhs = static_cast<int>(rhs.size());

  const SdcDetectConfig& det = far_.config().sdc;
  const SdcPending pending = node_.health().sdc;

  if (far_.config().collect_real_timings)
    out.real_timings = std::make_shared<OpTimers>();
  const SdcHooks far_hooks{&det, pending.expansion, pending.expansion_seed,
                           &out.sdc};
  const bool arm_far = det.expansion_checks || det.expansion_reaggregation ||
                       pending.expansion;
  far_.evaluate(tree, lists, rhs, far, out.real_timings.get(),
                arm_far ? &far_hooks : nullptr);

  near.assign(tree.num_bodies(), Accum{});
  const SdcHooks p2p_hooks{&det, pending.gpu_batch, pending.gpu_batch_seed,
                           &out.sdc};
  const bool arm_p2p =
      det.p2p_checks || det.p2p_verify_stride > 0 || pending.gpu_batch;
  out.gpu = run_p2p(tree, lists.p2p, kernel_, sources, tree.perm(),
                    node_.gpus(), std::span<Accum>(near), &node_.health(),
                    arm_p2p ? &p2p_hooks : nullptr);

  out.times =
      node_.observe(far_.context(), tree, lists, out.gpu, nrhs, &out.dag);
  out.stats = make_stats(tree, lists);
}

template class FmmSolver<GravityKernel>;
template class FmmSolver<StokesletKernel>;

GravitySolver::GravitySolver(const FmmConfig& config, NodeSimulator node,
                             GravityKernel kernel)
    : FmmSolver(config, std::move(node), kernel) {}

GravityResult GravitySolver::solve(const AdaptiveOctree& tree,
                                   std::span<const Vec3> positions,
                                   std::span<const double> charges) const {
  if (positions.size() != charges.size() ||
      positions.size() != tree.num_bodies())
    throw std::invalid_argument("GravitySolver::solve: size mismatch");

  std::vector<std::vector<double>> rhs(1);
  tree.gather(charges, rhs[0]);
  const auto pos = tree.sorted_positions();
  const std::size_t n = tree.num_bodies();
  std::vector<GravitySource> sources(n);
  for (std::size_t i = 0; i < n; ++i) sources[i] = {pos[i], rhs[0][i]};

  GravityResult res;
  std::vector<std::vector<PointValue>> far_out;
  std::vector<GravityAccum> near;
  run(tree, rhs, sources, res, far_out, near);

  res.potential.assign(n, 0.0);
  res.gradient.assign(n, Vec3{});
  const auto perm = tree.perm();
  for (std::size_t t = 0; t < n; ++t) {
    const auto o = perm[t];
    res.potential[o] = far_out[0][t].potential + near[t].pot;
    res.gradient[o] = far_out[0][t].gradient + near[t].grad;
  }
  return res;
}

StokesletSolver::StokesletSolver(const FmmConfig& config, NodeSimulator node,
                                 double epsilon)
    : FmmSolver(config, std::move(node), StokesletKernel(epsilon)) {}

StokesletResult StokesletSolver::solve(const AdaptiveOctree& tree,
                                       std::span<const Vec3> positions,
                                       std::span<const Vec3> forces) const {
  if (positions.size() != forces.size() ||
      positions.size() != tree.num_bodies())
    throw std::invalid_argument("StokesletSolver::solve: size mismatch");

  const auto pos = tree.sorted_positions();
  const auto perm = tree.perm();
  const std::size_t n = tree.num_bodies();

  // Four harmonic right-hand sides: f_x, f_y, f_z and the moment y.f.
  std::vector<std::vector<double>> rhs(4, std::vector<double>(n));
  std::vector<StokesletSource> sources(n);
  for (std::size_t t = 0; t < n; ++t) {
    const Vec3 f = forces[perm[t]];
    rhs[0][t] = f.x;
    rhs[1][t] = f.y;
    rhs[2][t] = f.z;
    rhs[3][t] = dot(pos[t], f);
    sources[t] = {pos[t], f};
  }

  StokesletResult res;
  std::vector<std::vector<PointValue>> far_out;
  std::vector<StokesletAccum> near;
  run(tree, rhs, sources, res, far_out, near);

  res.velocity.assign(n, Vec3{});
  for (std::size_t t = 0; t < n; ++t) {
    const double phi[3] = {far_out[0][t].potential, far_out[1][t].potential,
                           far_out[2][t].potential};
    const Vec3 grad_phi[3] = {far_out[0][t].gradient, far_out[1][t].gradient,
                              far_out[2][t].gradient};
    const Vec3 u_far =
        combine_harmonic_passes(pos[t], phi, grad_phi, far_out[3][t].gradient);
    res.velocity[perm[t]] = u_far + near[t].u;
  }
  return res;
}

}  // namespace afmm
