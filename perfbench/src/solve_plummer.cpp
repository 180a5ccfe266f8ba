// solve-plummer: repeated GravitySolver::solve on one fixed tree.
//
// Plummer sphere, N = 5,000, p = 5, S = 64, theta = 0.55, on a 10-core /
// 2-GPU virtual node. The far field takes over half of a solve at 2 threads
// (the serial P2P most of the rest) and the lists are built once in set-up,
// so this is the workload where expansion/ (M2L above all) dominates: M2L,
// derivative-cache and truncation work shows here, and the list build shows
// only in setup_s.
//
// Episode: set-up (tree build, list build inside the priming solve) then a
// fixed number of timed solves. Every solve of an episode must be
// bit-identical to the priming solve.
#include <cmath>
#include <optional>

#include "dist/distributions.hpp"
#include "mirror.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kBaseSeed = 2013;  // base realization, see Rotation

struct Inputs {
  afmm::ParticleSet bodies;
  afmm::TreeConfig tc;
  afmm::FmmConfig fmm;
  afmm::NodeSimulator node = make_node(10, 6, 2);
  int steps = 0;
};

// The run's sphere (the base realization rotated by `seed`), or the
// unrotated base realization when `seed` is empty.
Inputs make_inputs(const Options& o, std::optional<std::uint64_t> seed) {
  Inputs in;
  afmm::Rng rng(kBaseSeed);
  in.bodies = afmm::plummer(o.smoke ? 600 : 5000, rng);  // r <= 10 a
  if (seed) {
    const Rotation rotate(*seed, false);
    for (auto& p : in.bodies.positions) p = rotate(p);
  }
  in.tc = make_tree_config({0, 0, 0}, 10.0, 64);
  in.fmm.order = 5;
  in.fmm.traversal.theta = 0.55;
  in.steps = o.smoke ? 3 : 12;
  return in;
}

std::uint64_t field_hash(const std::vector<double>& potential,
                         const std::vector<afmm::Vec3>& gradient) {
  Fingerprint fp;
  fp.add_all(potential);
  fp.add_all(gradient);
  return fp.value();
}

// Checks a solve against the priming solve and folds the final one into the
// episode fingerprint.
struct SolveLog {
  std::uint64_t prime = 0;
  bool repeatable = true;
  void check(Episode& ep, const std::vector<double>& potential,
             const std::vector<afmm::Vec3>& gradient, ProgramClock& clock) {
    clock.exclude([&] {
      const std::uint64_t h = field_hash(potential, gradient);
      if (ep.steps.empty()) {
        prime = h;
        bool finite = true;
        for (double p : potential) finite = finite && std::isfinite(p);
        if (!finite) ep.failures.push_back("non-finite potential");
      } else if (h != prime && repeatable) {
        repeatable = false;
        ep.failures.push_back("a repeated solve on the fixed tree changed bits");
      }
    });
  }
  void finish(Episode& ep, std::uint64_t m2l_pairs, std::uint64_t p2p) {
    ep.fp.add(prime);
    ep.fp.add(ep.virtual_total);
    ep.fp.add(m2l_pairs);
    ep.fp.add(p2p);
    ep.operations = 1 + static_cast<long>(ep.steps.size());
    for (double s : ep.steps) ep.wall += s;
    ep.wall += ep.setup;
  }
};

Episode untraced_episode(Env& env, const Inputs& in) {
  Episode ep;
  SolveLog log;
  ProgramClock& clock = env.clock;
  env.calib.run(clock);
  const double t0 = clock.now();
  afmm::AdaptiveOctree tree;
  tree.build(in.bodies.positions, in.tc);
  const afmm::GravitySolver solver(in.fmm, in.node);
  afmm::GravityResult res =
      solver.solve(tree, in.bodies.positions, in.bodies.masses);
  ep.setup = clock.now() - t0;
  env.calib.run(clock);
  log.check(ep, res.potential, res.gradient, clock);
  for (int k = 0; k < in.steps; ++k) {
    const double ts = clock.now();
    res = solver.solve(tree, in.bodies.positions, in.bodies.masses);
    ep.steps.push_back(clock.now() - ts);
    ep.virtual_total += res.times.compute_seconds();
    env.calib.run(clock);
    log.check(ep, res.potential, res.gradient, clock);
  }
  log.finish(ep, res.stats.m2l_pairs, res.gpu.total_interactions);
  return ep;
}

// The same episode through the solve mirror, with spans and op timers.
Episode traced_episode(Env& env, const Inputs& in, Tracer& tracer,
                       std::map<std::string, double>& layer) {
  Episode ep;
  SolveLog log;
  ProgramClock& clock = env.clock;
  const afmm::HarmonicFarField far(in.fmm);
  const afmm::GravityKernel kernel;
  afmm::InteractionListCache cache;
  afmm::OpTimers timers;
  afmm::AdaptiveOctree tree;
  double p2p = 0.0;
  env.calib.run(clock);
  const double t0 = clock.now();
  GravitySolveOut res;
  {
    PB_SPAN(&tracer, "setup");
    {
      PB_SPAN(&tracer, "octree.build");
      tree.build(in.bodies.positions, in.tc);
    }
    res = gravity_solve_mirror(far, in.node, kernel, cache, tree,
                               in.bodies.masses, &timers, &tracer);
  }
  ep.setup = clock.now() - t0;
  p2p += static_cast<double>(res.gpu.total_interactions);
  env.calib.run(clock);
  log.check(ep, res.potential, res.gradient, clock);
  for (int k = 0; k < in.steps; ++k) {
    const double ts = clock.now();
    {
      PB_SPAN(&tracer, "step");
      res = gravity_solve_mirror(far, in.node, kernel, cache, tree,
                                 in.bodies.masses, &timers, &tracer);
    }
    ep.steps.push_back(clock.now() - ts);
    ep.virtual_total += res.times.compute_seconds();
    p2p += static_cast<double>(res.gpu.total_interactions);
    env.calib.run(clock);
    log.check(ep, res.potential, res.gradient, clock);
  }
  log.finish(ep, res.m2l_pairs, res.gpu.total_interactions);

  add_op_timers(timers, layer);
  layer["octree.builds"] = 1;
  layer["octree.list_builds"] = static_cast<double>(cache.builds());
  layer["octree.list_hits"] = static_cast<double>(cache.hits());
  layer["gpusim.p2p_interactions"] = p2p;
  return ep;
}

}  // namespace

void solve_plummer(Env& env, Report& r) {
  const Inputs in = make_inputs(env.opt, env.opt.seed);
  const int min_episodes = env.opt.smoke ? 2 : 4;
  r.min_steps = static_cast<std::size_t>(min_episodes * in.steps);
  r.min_bursts = r.min_steps / kBurstSteps;
  r.notes["workload.n"] = std::to_string(in.bodies.size());
  r.notes["workload.steps_per_episode"] = std::to_string(in.steps);

  // Accuracy of the solver on the unrotated base realization: a function of
  // the program alone, whatever the seed.
  r.rel_err_tol = 1e-3;
  env.clock.exclude([&] {
    const Inputs base = make_inputs(env.opt, std::nullopt);
    ErrorAccum err;
    gravity_solve_error(base.bodies.positions, base.bodies.masses, base.tc,
                        base.fmm, base.node, afmm::GravityKernel{}, 1024, err);
    r.rel_err = err.rel();
  });

  auto untraced = [&](int) { return untraced_episode(env, in); };
  auto traced = [&](Tracer& tracer, std::map<std::string, double>& layer) {
    return traced_episode(env, in, tracer, layer);
  };
  drive(env, r, 1, min_episodes, 0, untraced, traced, [] { return 0.0; });
  if (!env.opt.trace) return;

  afmm::AdaptiveOctree tree;
  tree.build(in.bodies.positions, in.tc);
  const afmm::HarmonicFarField far(in.fmm);
  const auto [far_eff, p2p_eff] = parallel_efficiency(env, [&](Tracer* t) {
    afmm::InteractionListCache cache;
    gravity_solve_mirror(far, in.node, afmm::GravityKernel{}, cache, tree,
                         in.bodies.masses, nullptr, t);
  });
  r.layer["expansion.parallel_eff"] = far_eff;
  r.layer["gpusim.parallel_eff"] = p2p_eff;
}

}  // namespace perfbench
