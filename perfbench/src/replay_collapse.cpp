// replay-collapse: timing-only replay of a cold collapse through
// afmm::bench::replay_strategy, the loop fig08_dynamic_strategies runs.
//
// N = 200,000 bodies, kFull balancer, p = 4 machine model, 10-core / 4-GPU
// node as in fig08. Positions come from a seeded analytic collapse: each
// body starts on a Plummer shell inside 1/64th of the box and falls in on
// its shell's free-fall time (which grows like r^{3/2}), most bodies then
// settle into a small oscillating core and ~15% are ejected into an
// expanding halo. The benchmark generates positions per step, so set-up runs
// no FMM dynamics. No numerics run in the replay: list builds, the balancer,
// the machine model and rebin are the whole cost, so a far-field or P2P
// change must leave this workload flat, while cached replay or a cheaper
// list build shows here and nowhere else.
//
// Episode: set-up (initial build and first observation) then a fixed number
// of replay steps; position generation is excluded from every timing.
#include <omp.h>

#include <cmath>
#include <memory>
#include <optional>

#include "common.hpp"
#include "mirror.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

// Per-body parameters of the analytic collapse.
class Collapse {
 public:
  // Per-body parameters from a fixed base realization; the run's seed
  // rotates the whole cloud (see Rotation). No seed: the base itself.
  Collapse(std::size_t n, std::optional<std::uint64_t> seed) : bodies_(n) {
    afmm::Rng rng(2013);
    const std::optional<Rotation> rotate =
        seed ? std::optional<Rotation>(Rotation(*seed, false)) : std::nullopt;
    for (Body& b : bodies_) {
      double r0 = 0.0;
      do {  // Plummer radius, truncated to the 4 a cloud of fig08
        const double u = rng.uniform();
        r0 = u > 0.0 ? 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0) : 0.0;
      } while (!(r0 > 0.0 && r0 <= 4.0));
      const double z = rng.uniform(-1, 1);
      const double phi = rng.uniform(0.0, 2.0 * M_PI);
      const double s = std::sqrt(1.0 - z * z);
      const afmm::Vec3 dir{s * std::cos(phi), s * std::sin(phi), z};
      b.dir = rotate ? (*rotate)(dir) : dir;
      b.r0 = r0;
      // Free fall of a shell enclosing Plummer mass r^3 / (r^2 + 1)^{3/2}.
      b.tff = 0.5 * M_PI * std::sqrt(std::pow(r0 * r0 + 1.0, 1.5) / 2.0);
      b.rcore = 0.04 * (0.5 + rng.uniform()) * std::sqrt(r0);
      b.vej = rng.uniform() < 0.15 ? rng.uniform(0.3, 1.2) : 0.0;
      b.omega = rng.uniform(2.0, 6.0);
      b.phase = rng.uniform(0.0, 2.0 * M_PI);
    }
  }

  // Positions at time t into `out` (sized to the body count).
  void fill(double t, std::vector<afmm::Vec3>& out) const {
    const long n = static_cast<long>(bodies_.size());
#pragma omp parallel for schedule(static)
    for (long i = 0; i < n; ++i) {
      const Body& b = bodies_[static_cast<std::size_t>(i)];
      const double x = t / b.tff;
      double r;
      if (x < 1.0) {
        r = std::max(b.r0 * std::pow(1.0 - x * x, 2.0 / 3.0), b.rcore);
      } else {
        const double since = t - b.tff;
        r = b.rcore * (1.0 + 0.3 * std::sin(b.omega * since + b.phase)) +
            b.vej * since;
      }
      out[static_cast<std::size_t>(i)] = std::min(r, 15.0) * b.dir;
    }
  }

  std::size_t size() const { return bodies_.size(); }

 private:
  struct Body {
    afmm::Vec3 dir;
    double r0, tff, rcore, vej, omega, phase;
  };
  std::vector<Body> bodies_;
};

struct Inputs {
  std::size_t n = 0;
  std::uint64_t seed = 0;
  // Realization k: the base collapse under the k-th rotation of the seed.
  Collapse collapse(int k) const {
    return Collapse(n, seed * 1000003ULL + static_cast<std::uint64_t>(k));
  }
  afmm::TreeConfig tc = make_tree_config({0, 0, 0}, 16.0, 64);
  afmm::LoadBalancerConfig lb;
  afmm::NodeSimulator node = make_node(10, 6, 4);
  // Not address-stable (see core/problems.hpp): held behind a pointer.
  std::unique_ptr<afmm::ExpansionContext> ctx;
  int steps = 0;
  double t_end = 10.5;  // past the outermost shell's free-fall time
  double time_of(std::size_t step) const {
    return t_end * static_cast<double>(step) / static_cast<double>(steps);
  }
};

Inputs make_inputs(const Options& o) {
  Inputs in;
  in.n = o.smoke ? 6000 : 200000;
  in.seed = o.seed;
  in.lb.strategy = afmm::LbStrategy::kFull;
  in.lb.initial_S = 64;
  in.ctx = std::make_unique<afmm::ExpansionContext>(4);
  in.steps = o.smoke ? 8 : 40;
  return in;
}

void add_step(Fingerprint& fp, int S, afmm::LbState state, double compute,
              double lb) {
  fp.add(S);
  fp.add(static_cast<int>(state));
  fp.add(compute);
  fp.add(lb);
}

void finish(Episode& ep) {
  ep.fp.add(ep.virtual_total);
  ep.operations = 1 + static_cast<long>(ep.steps.size());
  ep.wall = ep.setup;
  for (double s : ep.steps) ep.wall += s;
  if (!std::isfinite(ep.virtual_total))
    ep.failures.push_back("non-finite virtual step time");
}

// One replay_strategy call of `steps` steps, timed between the position
// provider's calls (the provider runs at the start of every step).
Episode untraced_episode(Env& env, const Inputs& in, const Collapse& collapse,
                         std::size_t steps, int* final_S) {
  Episode ep;
  ProgramClock& clock = env.clock;
  std::vector<afmm::Vec3> buffer(collapse.size());
  double mark = 0.0;
  auto provider = [&](std::size_t step) -> std::span<const afmm::Vec3> {
    const double t = clock.now();
    if (step == 1)
      ep.setup = t - mark;
    else if (step > 1)
      ep.steps.push_back(t - mark);
    if (step > 0) env.calib.run(clock);
    clock.exclude([&] { collapse.fill(in.time_of(step), buffer); });
    mark = clock.now();
    return buffer;
  };
  env.calib.run(clock);
  const auto records = afmm::bench::replay_strategy(provider, steps, in.tc,
                                                    in.lb, in.node, *in.ctx);
  if (steps == 0)
    ep.setup = clock.now() - mark;
  else
    ep.steps.push_back(clock.now() - mark);
  env.calib.run(clock);
  for (const auto& rec : records) {
    ep.virtual_total += rec.total_seconds();
    add_step(ep.fp, rec.S, rec.state, rec.compute_seconds, rec.lb_seconds);
  }
  finish(ep);
  if (final_S && !records.empty()) *final_S = records.back().S;
  return ep;
}

// replay_strategy's loop spelled out layer by layer.
Episode traced_episode(Env& env, const Inputs& in, Tracer& tracer,
                       std::map<std::string, double>& layer) {
  Episode ep;
  ProgramClock& clock = env.clock;
  std::optional<Collapse> built;
  clock.exclude([&] { built.emplace(in.collapse(0)); });
  const Collapse& collapse = *built;
  std::vector<afmm::Vec3> buffer(collapse.size());
  const afmm::TraversalConfig traversal;
  double gen = 0.0;
  auto generate = [&](std::size_t step) {
    PB_SPAN(&tracer, "bench.positions");
    const double g0 = clock.now();
    collapse.fill(in.time_of(step), buffer);
    gen = clock.now() - g0;
  };
  double list_builds = 0;
  auto observe = [&](const afmm::AdaptiveOctree& tree) {
    afmm::InteractionLists lists;
    {
      PB_SPAN(&tracer, "octree.lists");
      lists = afmm::build_interaction_lists(tree, traversal);
    }
    ++list_builds;
    PB_SPAN(&tracer, "machine.observe");
    return in.node.observe_step(*in.ctx, tree, lists, 20.0, 1);
  };

  afmm::AdaptiveOctree tree;
  afmm::TreeConfig tc = in.tc;
  tc.leaf_capacity = in.lb.initial_S;
  env.calib.run(clock);
  double t0 = clock.now();
  std::unique_ptr<afmm::LoadBalancer> balancer;
  afmm::ObservedStepTimes observed;
  {
    PB_SPAN(&tracer, "setup");
    generate(0);
    {
      PB_SPAN(&tracer, "octree.build");
      tree.build(buffer, tc);
    }
    balancer = std::make_unique<afmm::LoadBalancer>(in.lb, traversal);
    observed = observe(tree);
  }
  ep.setup = clock.now() - t0 - gen;
  double rebuilds = 0, enforce = 0, fgo = 0;
  for (int step = 1; step <= in.steps; ++step) {
    env.calib.run(clock);
    t0 = clock.now();
    afmm::LbStepReport lb;
    {
      PB_SPAN(&tracer, "step");
      generate(static_cast<std::size_t>(step));
      {
        PB_SPAN(&tracer, "octree.rebin");
        tree.rebin(buffer);
      }
      {
        PB_SPAN(&tracer, "balance.post_step");
        lb = balancer->post_step(tree, buffer, observed, in.node);
      }
      observed = observe(tree);
    }
    ep.steps.push_back(clock.now() - t0 - gen);
    const afmm::bench::ReplayRecord rec{observed.compute_seconds(),
                                        observed.cpu_seconds,
                                        observed.gpu_seconds,
                                        0.0 + lb.lb_seconds,
                                        lb.S,
                                        lb.state_after};
    ep.virtual_total += rec.total_seconds();
    add_step(ep.fp, rec.S, rec.state, rec.compute_seconds, rec.lb_seconds);
    rebuilds += lb.rebuilt ? 1 : 0;
    enforce += lb.enforce_ops;
    fgo += lb.fgo_ops;
  }
  env.calib.run(clock);
  finish(ep);

  layer["octree.builds"] = 1 + rebuilds;
  layer["octree.list_builds"] = list_builds;
  layer["octree.list_hits"] = 0;
  layer["balance.rebuilds"] = rebuilds;
  layer["balance.enforce_ops"] = enforce;
  layer["balance.fgo_ops"] = fgo;
  return ep;
}

}  // namespace

void replay_collapse(Env& env, Report& r) {
  // The balancer's decisions, and with them the cost of the rebuild and
  // fine-tuning steps in the tail, depend on how the octree cuts the cloud,
  // so each run pools several rotations.
  constexpr int kRealizations = 5;
  const Inputs in = make_inputs(env.opt);
  const int min_episodes = kRealizations;
  r.min_steps = static_cast<std::size_t>(min_episodes * in.steps);
  r.min_bursts = r.min_steps / kBurstSteps;
  r.notes["workload.n"] = std::to_string(in.n);
  r.notes["workload.steps_per_episode"] = std::to_string(in.steps);
  r.notes["workload.realizations"] = std::to_string(kRealizations);

  // The replay runs no numerics; its accuracy is that of the solve it
  // models (p = 4, theta = 0.55, S = 64), measured at the final geometry of
  // the unrotated base collapse on an evenly strided 5,000-body subsample: a
  // function of the program alone, whatever the seed.
  r.rel_err_tol = 1e-3;
  env.clock.exclude([&] {
    const Collapse base(in.n, std::nullopt);
    std::vector<afmm::Vec3> all(base.size());
    base.fill(in.time_of(static_cast<std::size_t>(in.steps)), all);
    const std::size_t stride = std::max<std::size_t>(1, all.size() / 5000);
    std::vector<afmm::Vec3> sub;
    for (std::size_t i = 0; i < all.size(); i += stride) sub.push_back(all[i]);
    const std::vector<double> masses(sub.size(), 1.0 / sub.size());
    afmm::FmmConfig fmm;
    fmm.order = 4;
    ErrorAccum err;
    gravity_solve_error(sub, masses, in.tc, fmm, in.node, afmm::GravityKernel{},
                        1024, err);
    r.rel_err = err.rel();
  });

  int episodes = 0;
  auto untraced = [&](int k) {
    int final_S = 0;
    const bool note = episodes++ < kRealizations;
    std::optional<Collapse> collapse;
    env.clock.exclude([&] { collapse.emplace(in.collapse(k)); });
    Episode ep = untraced_episode(env, in, *collapse,
                                  static_cast<std::size_t>(in.steps), &final_S);
    if (note) r.notes["workload.final_S." + std::to_string(k)] = std::to_string(final_S);
    return ep;
  };
  auto traced = [&](Tracer& tracer, std::map<std::string, double>& layer) {
    return traced_episode(env, in, tracer, layer);
  };
  auto setup_only = [&] {
    std::optional<Collapse> collapse;
    env.clock.exclude([&] { collapse.emplace(in.collapse(0)); });
    return untraced_episode(env, in, *collapse, 0, nullptr).setup;
  };
  drive(env, r, kRealizations, min_episodes, 5, untraced, traced, setup_only);
}

}  // namespace perfbench
