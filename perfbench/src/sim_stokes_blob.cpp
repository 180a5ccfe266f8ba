// sim-stokes-blob: the sedimenting Stokeslet blob stepped through the
// simulation engine with the full (kFull) balancer.
//
// N = 4,000 Stokeslets in a unit ball falling under a constant force,
// p = 4, epsilon = 0.02, on a 10-core / 2-GPU virtual node. The balancer
// searches S for the first few steps, then walks it down as the blob sinks.
// Stokeslet P2P is about 85% of a traced step and the 4-rhs far field about
// 13%, so this is the workload with the largest P2P share (the serial
// run_p2p), and it drives the engine loop (rebin, balancer, solve,
// advection) on the paper's fluid problem class.
//
// Episode: set-up (tree build, list build and priming solve in the engine
// constructor) then a fixed number of engine steps.
#include <numbers>
#include <optional>

#include "core/problems.hpp"
#include "mirror.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kBaseSeed = 3;  // base realization, see Rotation

struct Inputs {
  std::vector<afmm::Vec3> positions;
  afmm::EngineConfig cfg;
  afmm::NodeSimulator node = make_node(10, 6, 2);
  double epsilon = 0.02;
  double viscosity = 1.0;
  afmm::Vec3 force{0, 0, -1};
  int steps = 0;
};

// The blob of the run (rotated about the fall direction by `seed`), or the
// unrotated base blob when `seed` is empty.
Inputs make_inputs(const Options& o, std::optional<std::uint64_t> seed) {
  Inputs in;
  const std::size_t n = o.smoke ? 400 : 4000;
  afmm::Rng rng(kBaseSeed);
  const std::optional<Rotation> rotate =
      seed ? std::optional<Rotation>(Rotation(*seed, true)) : std::nullopt;
  while (in.positions.size() < n) {
    const afmm::Vec3 p{rng.uniform(-1, 1), rng.uniform(-1, 1),
                       rng.uniform(-1, 1)};
    if (afmm::norm2(p) <= 1.0)
      in.positions.push_back((rotate ? (*rotate)(p) : p) + afmm::Vec3{0, 0, 6});
  }
  in.cfg.fmm.order = 4;
  // examples/sedimentation's domain. At this dt the blob sinks about three
  // units in an episode, so it stays inside the root cell, and the balancer
  // walks S down along a similar path for every rotation of the blob (at
  // dt = 1e-3 the blob leaves the box and the path depends on the seed).
  in.cfg.tree = make_tree_config({0, 0, 0}, 10.0, 48);
  in.cfg.dt = 2e-4;
  in.cfg.balancer.strategy = afmm::LbStrategy::kFull;
  in.cfg.balancer.initial_S = 48;
  in.steps = o.smoke ? 10 : 30;
  return in;
}

afmm::StokesProblem make_problem(const Inputs& in) {
  return afmm::StokesProblem(in.cfg.fmm, in.epsilon, in.viscosity, in.node,
                             in.positions, afmm::constant_force(in.force));
}

void add_step(Fingerprint& fp, int S, afmm::LbState state, bool rebuilt,
              int enforce_ops, int fgo_ops, std::uint64_t m2l,
              std::uint64_t p2p, double total) {
  fp.add(S);
  fp.add(static_cast<int>(state));
  fp.add(static_cast<int>(rebuilt));
  fp.add(enforce_ops);
  fp.add(fgo_ops);
  fp.add(m2l);
  fp.add(p2p);
  fp.add(total);
}

void finish(Episode& ep, const std::vector<afmm::Vec3>& positions,
            const std::vector<afmm::Vec3>& velocities) {
  bool finite = true;
  for (const auto& p : positions)
    finite = finite && std::isfinite(p.x) && std::isfinite(p.y) &&
             std::isfinite(p.z);
  if (!finite) ep.failures.push_back("non-finite Stokeslet position");
  ep.fp.add_all(positions);
  ep.fp.add_all(velocities);
  ep.fp.add(ep.virtual_total);
  ep.operations = 1 + static_cast<long>(ep.steps.size());
  ep.wall = ep.setup;
  for (double s : ep.steps) ep.wall += s;
}

Episode untraced_episode(Env& env, const Inputs& in, int* final_S,
                         std::string* trajectory) {
  Episode ep;
  ProgramClock& clock = env.clock;
  env.calib.run(clock);
  const double t0 = clock.now();
  afmm::StokesEngine engine(in.cfg, make_problem(in));
  ep.setup = clock.now() - t0;
  env.calib.run(clock);
  for (int k = 0; k < in.steps; ++k) {
    const double ts = clock.now();
    const afmm::StepRecord rec = engine.step_once();
    ep.steps.push_back(clock.now() - ts);
    ep.virtual_total += rec.total_seconds();
    if (trajectory)
      *trajectory += std::to_string(rec.S) + afmm::to_string(rec.state)[0] + " ";
    add_step(ep.fp, rec.S, rec.state, rec.rebuilt, rec.enforce_ops,
             rec.fgo_ops, rec.stats.m2l_pairs, rec.stats.p2p_interactions,
             rec.total_seconds());
    env.calib.run(clock);
  }
  finish(ep, engine.problem().position_vector(), engine.problem().velocities());
  if (final_S) *final_S = engine.balancer().current_S();
  return ep;
}

// SimulationEngine<StokesProblem>::step_once without faults, resilience or
// observability (all off in this workload), spelled out layer by layer.
struct MirrorEngine {
  MirrorEngine(const Inputs& inputs, Tracer* t) : in(inputs), tracer(t) {}
  MirrorEngine(const MirrorEngine&) = delete;  // far field is not movable
  MirrorEngine& operator=(const MirrorEngine&) = delete;

  const Inputs& in;
  Tracer* tracer;
  afmm::HarmonicFarField far{in.cfg.fmm};
  afmm::StokesletKernel kernel{in.epsilon};
  afmm::InteractionListCache cache;
  afmm::LoadBalancer balancer{in.cfg.balancer, in.cfg.fmm.traversal};
  afmm::AdaptiveOctree tree;
  afmm::OpTimers timers;
  std::vector<afmm::Vec3> positions = in.positions;
  std::vector<afmm::Vec3> velocities = std::vector<afmm::Vec3>(positions.size());
  std::vector<afmm::Vec3> forces = std::vector<afmm::Vec3>(positions.size());
  afmm::ObservedStepTimes last_observed;
  double mobility = 1.0 / (8.0 * std::numbers::pi_v<double> * in.viscosity);
  double p2p = 0.0;

  StokesSolveOut solve() {
    {
      PB_SPAN(tracer, "core.force");
      afmm::constant_force(in.force)(positions, forces);
    }
    StokesSolveOut res = stokes_solve_mirror(far, in.node, kernel, cache, tree,
                                             forces, &timers, tracer);
    p2p += static_cast<double>(res.gpu.total_interactions);
    return res;
  }

  void prepare() {
    balancer.set_list_cache(&cache);
    afmm::TreeConfig tc = in.cfg.tree;
    tc.leaf_capacity = in.cfg.balancer.initial_S;
    {
      PB_SPAN(tracer, "octree.build");
      tree.build(positions, tc);
    }
    const StokesSolveOut res = solve();
    {
      PB_SPAN(tracer, "core.integrate");
      for (std::size_t i = 0; i < positions.size(); ++i)
        velocities[i] = mobility * res.velocity[i];
    }
    last_observed = res.times;
  }

  afmm::LbStepReport step(Fingerprint& fp, double& total) {
    {
      PB_SPAN(tracer, "octree.rebin");
      tree.rebin(positions);
    }
    double lb_seconds = 0.0;
    lb_seconds += in.node.rebin_seconds(positions.size());
    afmm::LbStepReport lb;
    {
      PB_SPAN(tracer, "balance.post_step");
      lb = balancer.post_step(tree, positions, last_observed, in.node);
    }
    lb_seconds += lb.lb_seconds;
    const StokesSolveOut res = solve();
    {
      PB_SPAN(tracer, "core.integrate");
      for (std::size_t i = 0; i < positions.size(); ++i) {
        velocities[i] = mobility * res.velocity[i];
        positions[i] += in.cfg.dt * velocities[i];
      }
    }
    last_observed = res.times;
    total = res.times.compute_seconds() + lb_seconds;
    add_step(fp, lb.S, lb.state_after, lb.rebuilt, lb.enforce_ops, lb.fgo_ops,
             res.m2l_pairs, res.p2p_interactions, total);
    return lb;
  }
};

Episode traced_episode(Env& env, const Inputs& in, Tracer& tracer,
                       std::map<std::string, double>& layer) {
  Episode ep;
  ProgramClock& clock = env.clock;
  MirrorEngine m{in, &tracer};
  env.calib.run(clock);
  const double t0 = clock.now();
  {
    PB_SPAN(&tracer, "setup");
    m.prepare();
  }
  ep.setup = clock.now() - t0;
  env.calib.run(clock);
  double rebuilds = 0, enforce = 0, fgo = 0;
  for (int k = 0; k < in.steps; ++k) {
    const double ts = clock.now();
    double total = 0.0;
    afmm::LbStepReport lb;
    {
      PB_SPAN(&tracer, "step");
      lb = m.step(ep.fp, total);
    }
    ep.steps.push_back(clock.now() - ts);
    ep.virtual_total += total;
    rebuilds += lb.rebuilt ? 1 : 0;
    enforce += lb.enforce_ops;
    fgo += lb.fgo_ops;
    env.calib.run(clock);
  }
  finish(ep, m.positions, m.velocities);

  add_op_timers(m.timers, layer);
  layer["octree.builds"] = 1 + rebuilds;
  layer["octree.list_builds"] = static_cast<double>(m.cache.builds());
  layer["octree.list_hits"] = static_cast<double>(m.cache.hits());
  layer["balance.rebuilds"] = rebuilds;
  layer["balance.enforce_ops"] = enforce;
  layer["balance.fgo_ops"] = fgo;
  layer["gpusim.p2p_interactions"] = m.p2p;
  return ep;
}

}  // namespace

void sim_stokes_blob(Env& env, Report& r) {
  // The balancer's S path, and with it the P2P cost of every step, depends
  // on how the octree cuts the blob, so each run pools several rotations.
  constexpr int kRealizations = 3;
  std::vector<Inputs> ins;
  for (int k = 0; k < kRealizations; ++k)
    ins.push_back(make_inputs(env.opt, env.opt.seed * 1000003ULL +
                                           static_cast<std::uint64_t>(k)));
  const Inputs& in = ins.front();
  const int min_episodes = kRealizations;
  r.min_steps = static_cast<std::size_t>(min_episodes * in.steps);
  r.min_bursts = r.min_steps / kBurstSteps;
  r.notes["workload.n"] = std::to_string(in.positions.size());
  r.notes["workload.steps_per_episode"] = std::to_string(in.steps);
  r.notes["workload.realizations"] = std::to_string(kRealizations);

  // Accuracy of the Stokeslet solver on the unrotated base blob at the
  // initial S: a function of the program alone, whatever the seed.
  r.rel_err_tol = 1e-3;
  env.clock.exclude([&] {
    const Inputs base = make_inputs(env.opt, std::nullopt);
    afmm::TreeConfig tc = base.cfg.tree;
    tc.leaf_capacity = base.cfg.balancer.initial_S;
    const std::vector<afmm::Vec3> forces(base.positions.size(), base.force);
    ErrorAccum err;
    stokes_solve_error(base.positions, forces, tc, base.cfg.fmm, base.node,
                       base.epsilon, 1024, err);
    r.rel_err = err.rel();
  });

  int episodes = 0;
  auto untraced = [&](int k) {
    int final_S = 0;
    std::string trajectory;
    const bool note = episodes++ < kRealizations;
    Episode ep = untraced_episode(env, ins[static_cast<std::size_t>(k)],
                                  &final_S, &trajectory);
    if (note) {
      r.notes["workload.S_trajectory." + std::to_string(k)] = trajectory;
      r.notes["workload.final_S." + std::to_string(k)] = std::to_string(final_S);
    }
    return ep;
  };
  auto traced = [&](Tracer& tracer, std::map<std::string, double>& layer) {
    return traced_episode(env, in, tracer, layer);
  };
  auto setup_only = [&] {
    env.calib.run(env.clock);
    const double t0 = env.clock.now();
    const afmm::StokesEngine engine(in.cfg, make_problem(in));
    const double s = env.clock.now() - t0;
    env.calib.run(env.clock);
    return s;
  };
  drive(env, r, kRealizations, min_episodes, 5, untraced, traced, setup_only);
  if (!env.opt.trace) return;

  // Parallel efficiency on the blob's initial configuration at S = 48.
  MirrorEngine m{in, nullptr};
  m.prepare();
  const auto [far_eff, p2p_eff] = parallel_efficiency(env, [&](Tracer* t) {
    afmm::InteractionListCache cache;
    stokes_solve_mirror(m.far, in.node, m.kernel, cache, m.tree, m.forces,
                        nullptr, t);
  });
  r.layer["expansion.parallel_eff"] = far_eff;
  r.layer["gpusim.parallel_eff"] = p2p_eff;
}

}  // namespace perfbench
