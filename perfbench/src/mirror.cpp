#include "mirror.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace perfbench {

afmm::NodeSimulator make_node(int cores, int cores_per_socket, int gpus) {
  afmm::CpuModelConfig cpu;
  cpu.num_cores = cores;
  cpu.cores_per_socket = cores_per_socket;
  afmm::NodeSimulator node(cpu, afmm::GpuSystemConfig::uniform(gpus));
  node.set_overlap(afmm::OverlapMode::kOff);
  return node;
}

afmm::TreeConfig make_tree_config(const afmm::Vec3& center, double half,
                                  int leaf_capacity) {
  afmm::TreeConfig tc;
  tc.root_center = center;
  tc.root_half = half;
  tc.leaf_capacity = leaf_capacity;
  tc.build_strategy = afmm::BuildStrategy::kPointer;
  return tc;
}

GravitySolveOut gravity_solve_mirror(const afmm::HarmonicFarField& far,
                                     const afmm::NodeSimulator& node,
                                     const afmm::GravityKernel& kernel,
                                     afmm::InteractionListCache& cache,
                                     const afmm::AdaptiveOctree& tree,
                                     std::span<const double> charges,
                                     afmm::OpTimers* timers, Tracer* tracer) {
  PB_SPAN(tracer, "core.solve");
  const afmm::InteractionLists* lists = nullptr;
  {
    PB_SPAN(tracer, "octree.lists");
    lists = &cache.get(tree, far.config().traversal);
  }
  std::vector<double> q_tree;
  tree.gather(charges, q_tree);

  GravitySolveOut out;
  const std::vector<std::vector<double>> rhs{q_tree};
  std::vector<std::vector<afmm::PointValue>> far_out;
  {
    PB_SPAN(tracer, "expansion.far");
    far.evaluate(tree, *lists, rhs, far_out, timers, nullptr);
  }

  const auto pos = tree.sorted_positions();
  const std::size_t n = tree.num_bodies();
  std::vector<afmm::GravitySource> sources(n);
  for (std::size_t i = 0; i < n; ++i) sources[i] = {pos[i], q_tree[i]};
  std::vector<afmm::GravityAccum> near(n);
  {
    PB_SPAN(tracer, "gpusim.p2p");
    out.gpu = afmm::run_p2p(tree, lists->p2p, kernel,
                            std::span<const afmm::GravitySource>(sources),
                            tree.perm(), node.gpus(),
                            std::span<afmm::GravityAccum>(near), &node.health(),
                            nullptr);
  }

  out.potential.assign(n, 0.0);
  out.gradient.assign(n, afmm::Vec3{});
  const auto perm = tree.perm();
  for (std::size_t t = 0; t < n; ++t) {
    const auto o = perm[t];
    out.potential[o] = far_out[0][t].potential + near[t].pot;
    out.gradient[o] = far_out[0][t].gradient + near[t].grad;
  }

  {
    PB_SPAN(tracer, "machine.far_model");
    out.times = node.simulate_far_field(far.context(), tree, *lists, 1);
  }
  if (out.gpu.cpu_fallback)
    out.times.cpu_p2p_seconds = node.cpu_p2p_seconds(out.gpu.total_interactions);
  else
    out.times.gpu_seconds = out.gpu.max_kernel_seconds;
  out.times.transfer_retries = out.gpu.timeline.retries;
  out.m2l_pairs = lists->total_m2l_pairs;
  out.p2p_interactions = lists->total_p2p_interactions;
  return out;
}

StokesSolveOut stokes_solve_mirror(const afmm::HarmonicFarField& far,
                                   const afmm::NodeSimulator& node,
                                   const afmm::StokesletKernel& kernel,
                                   afmm::InteractionListCache& cache,
                                   const afmm::AdaptiveOctree& tree,
                                   std::span<const afmm::Vec3> forces,
                                   afmm::OpTimers* timers, Tracer* tracer) {
  PB_SPAN(tracer, "core.solve");
  const afmm::InteractionLists* lists = nullptr;
  {
    PB_SPAN(tracer, "octree.lists");
    lists = &cache.get(tree, far.config().traversal);
  }
  const auto pos = tree.sorted_positions();
  const auto perm = tree.perm();
  const std::size_t n = tree.num_bodies();

  std::vector<std::vector<double>> rhs(4, std::vector<double>(n));
  for (std::size_t t = 0; t < n; ++t) {
    const afmm::Vec3 f = forces[perm[t]];
    rhs[0][t] = f.x;
    rhs[1][t] = f.y;
    rhs[2][t] = f.z;
    rhs[3][t] = afmm::dot(pos[t], f);
  }

  StokesSolveOut out;
  std::vector<std::vector<afmm::PointValue>> far_out;
  {
    PB_SPAN(tracer, "expansion.far");
    far.evaluate(tree, *lists, rhs, far_out, timers, nullptr);
  }

  std::vector<afmm::StokesletSource> sources(n);
  for (std::size_t t = 0; t < n; ++t) sources[t] = {pos[t], forces[perm[t]]};
  std::vector<afmm::StokesletAccum> near(n);
  {
    PB_SPAN(tracer, "gpusim.p2p");
    out.gpu = afmm::run_p2p(tree, lists->p2p, kernel,
                            std::span<const afmm::StokesletSource>(sources),
                            perm, node.gpus(),
                            std::span<afmm::StokesletAccum>(near),
                            &node.health(), nullptr);
  }

  out.velocity.assign(n, afmm::Vec3{});
  for (std::size_t t = 0; t < n; ++t) {
    const double phi[3] = {far_out[0][t].potential, far_out[1][t].potential,
                           far_out[2][t].potential};
    const afmm::Vec3 grad_phi[3] = {far_out[0][t].gradient,
                                    far_out[1][t].gradient,
                                    far_out[2][t].gradient};
    const afmm::Vec3 u_far = afmm::combine_harmonic_passes(
        pos[t], phi, grad_phi, far_out[3][t].gradient);
    out.velocity[perm[t]] = u_far + near[t].u;
  }

  {
    PB_SPAN(tracer, "machine.far_model");
    out.times = node.simulate_far_field(far.context(), tree, *lists, 4);
  }
  if (out.gpu.cpu_fallback)
    out.times.cpu_p2p_seconds = node.cpu_p2p_seconds(out.gpu.total_interactions);
  else
    out.times.gpu_seconds = out.gpu.max_kernel_seconds;
  out.times.transfer_retries = out.gpu.timeline.retries;
  out.m2l_pairs = lists->total_m2l_pairs;
  out.p2p_interactions = lists->total_p2p_interactions;
  return out;
}

Rotation::Rotation(std::uint64_t seed, bool about_z_only) {
  afmm::Rng rng(seed * 0x2545f4914f6cdd1dULL + 17);
  // Unit quaternion: uniform on SO(3) (Shoemake), or about z only.
  double w, x, y, z;
  if (about_z_only) {
    const double half = rng.uniform(0.0, M_PI);
    w = std::cos(half);
    x = 0.0;
    y = 0.0;
    z = std::sin(half);
  } else {
    const double u1 = rng.uniform(), u2 = rng.uniform(), u3 = rng.uniform();
    w = std::sqrt(1 - u1) * std::sin(2 * M_PI * u2);
    x = std::sqrt(1 - u1) * std::cos(2 * M_PI * u2);
    y = std::sqrt(u1) * std::sin(2 * M_PI * u3);
    z = std::sqrt(u1) * std::cos(2 * M_PI * u3);
  }
  const double r[3][3] = {
      {1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)},
      {2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)},
      {2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)}};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) m_[i][j] = r[i][j];
}

afmm::Vec3 Rotation::operator()(const afmm::Vec3& v) const {
  return {m_[0][0] * v.x + m_[0][1] * v.y + m_[0][2] * v.z,
          m_[1][0] * v.x + m_[1][1] * v.y + m_[1][2] * v.z,
          m_[2][0] * v.x + m_[2][1] * v.y + m_[2][2] * v.z};
}

namespace {

std::vector<std::size_t> error_sample(std::size_t n, std::size_t max) {
  std::vector<std::size_t> sample;
  const std::size_t k = std::min(n, max);
  for (std::size_t i = 0; i < k; ++i) sample.push_back(i * n / k);
  return sample;
}

// Direct sum over every body for the sampled targets, serial per target so
// the reference is deterministic; `field` maps an accumulator to the
// compared vector.
template <class Kernel, class MakeSource, class Field>
void direct_error(std::span<const afmm::Vec3> positions, MakeSource&& source,
                  const std::vector<afmm::Vec3>& approx, const Kernel& kernel,
                  const std::vector<std::size_t>& sample, Field&& field,
                  ErrorAccum& err) {
  std::vector<afmm::Vec3> exact(sample.size());
  const long m = static_cast<long>(sample.size());
#pragma omp parallel for schedule(dynamic, 8)
  for (long k = 0; k < m; ++k) {
    const std::size_t i = sample[static_cast<std::size_t>(k)];
    typename Kernel::Accum acc{};
    for (std::size_t j = 0; j < positions.size(); ++j)
      kernel.accumulate(positions[i], static_cast<std::uint32_t>(i), source(j),
                        static_cast<std::uint32_t>(j), acc);
    exact[static_cast<std::size_t>(k)] = field(acc);
  }
  for (std::size_t k = 0; k < sample.size(); ++k)
    err.add(approx[sample[k]], exact[k]);
}

void gravity_error(std::span<const afmm::Vec3> positions,
                   std::span<const double> charges,
                   const std::vector<afmm::Vec3>& gradient,
                   const afmm::GravityKernel& kernel,
                   const std::vector<std::size_t>& sample, ErrorAccum& err) {
  direct_error(
      positions,
      [&](std::size_t j) { return afmm::GravitySource{positions[j], charges[j]}; },
      gradient, kernel, sample,
      [](const afmm::GravityAccum& a) { return a.grad; }, err);
}

void stokes_error(std::span<const afmm::Vec3> positions,
                  std::span<const afmm::Vec3> forces,
                  const std::vector<afmm::Vec3>& velocity,
                  const afmm::StokesletKernel& kernel,
                  const std::vector<std::size_t>& sample, ErrorAccum& err) {
  direct_error(
      positions,
      [&](std::size_t j) { return afmm::StokesletSource{positions[j], forces[j]}; },
      velocity, kernel, sample,
      [](const afmm::StokesletAccum& a) { return a.u; }, err);
}

}  // namespace

void gravity_solve_error(std::span<const afmm::Vec3> positions,
                         std::span<const double> charges,
                         const afmm::TreeConfig& tc, const afmm::FmmConfig& fmm,
                         const afmm::NodeSimulator& node,
                         const afmm::GravityKernel& kernel,
                         std::size_t max_sample, ErrorAccum& err) {
  afmm::AdaptiveOctree tree;
  tree.build(positions, tc);
  const afmm::GravitySolver solver(fmm, node, kernel);
  const auto res = solver.solve(tree, positions, charges);
  gravity_error(positions, charges, res.gradient, kernel,
                error_sample(positions.size(), max_sample), err);
}

void stokes_solve_error(std::span<const afmm::Vec3> positions,
                        std::span<const afmm::Vec3> forces,
                        const afmm::TreeConfig& tc, const afmm::FmmConfig& fmm,
                        const afmm::NodeSimulator& node, double epsilon,
                        std::size_t max_sample, ErrorAccum& err) {
  afmm::AdaptiveOctree tree;
  tree.build(positions, tc);
  const afmm::StokesletSolver solver(fmm, node, epsilon);
  const auto res = solver.solve(tree, positions, forces);
  stokes_error(positions, forces, res.velocity, afmm::StokesletKernel(epsilon),
               error_sample(positions.size(), max_sample), err);
}

void add_op_timers(const afmm::OpTimers& timers,
                   std::map<std::string, double>& layer) {
  const std::pair<afmm::FmmOp, const char*> ops[] = {
      {afmm::FmmOp::kP2M, "expansion.p2m_s"},
      {afmm::FmmOp::kM2M, "expansion.m2m_s"},
      {afmm::FmmOp::kM2L, "expansion.m2l_s"},
      {afmm::FmmOp::kL2L, "expansion.l2l_s"},
      {afmm::FmmOp::kL2P, "expansion.l2p_s"},
  };
  for (const auto& [op, name] : ops) layer[name] += timers.totals(op).seconds;
  layer["expansion.m2l_pairs"] +=
      static_cast<double>(timers.totals(afmm::FmmOp::kM2L).count);
}

}  // namespace perfbench
