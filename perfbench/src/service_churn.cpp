// service-churn: seeded multi-tenant churn through SimulationService, on
// bench/service_throughput's recipe.
//
// Sessions are 2/3 gravity and 1/3 Stokes, 48-96 bodies, p = 3, priorities
// 1-3, bursts of 2-4 steps with 4-6 idle rounds between them; arrivals are
// scheduled by round number, so this is a closed loop driven from one
// process. Trace and metrics are on. It runs the engine and solver layers
// at tiny N, where per-call overhead dominates, and it is the only workload
// that measures service/ and obs/.
//
// Idle eviction is off: the service spills evicted engines through
// CheckpointStore, whose fsync on the checkout's disk made a churn twice as
// slow and drifted by half within half an hour of runs on the reference VM,
// and the benchmark may write only inside its checkout. state/ therefore
// goes unmeasured here.
//
// Episode: one whole churn. A step is one scheduling round (run_round); a
// burst runs from request_steps to the end of the round in which its last
// step ran. Set-up is standing the service up with every session admitted
// (engines stay deferred; there is no other set-up phase). Every sampled
// session is replayed alone outside the timed loop and must match the
// service's trajectory bit for bit.
#include <optional>

#include "core/problems.hpp"
#include "dist/distributions.hpp"
#include "mirror.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

struct Plan {
  std::string name;
  bool stokes = false;
  int priority = 1;
  int total = 0;    // steps this session wants over its lifetime
  int burst = 0;    // steps per demand burst
  int gap = 0;      // idle rounds between bursts
  int arrival = 0;  // admission round
  afmm::ParticleSet bodies;
  afmm::SessionFactory factory;
};

struct Inputs {
  std::vector<Plan> plans;
  afmm::EngineConfig gravity_cfg;
  afmm::EngineConfig stokes_cfg;
  afmm::NodeSimulator node = make_node(4, 6, 1);
  double softening = 1e-2;
  double epsilon = 0.05;
  afmm::Vec3 force{0, 0, -1};
  int verify_stride = 0;  // sessions replayed alone: every verify_stride-th
};

constexpr std::uint64_t kBaseSeed = 0x5eed;  // base schedule, see Rotation

// The run's churn: a fixed base schedule (sizes, priorities, bursts, gaps,
// arrivals) whose sessions' bodies are rotated by `seed`; no seed gives the
// unrotated base.
Inputs make_inputs(const Options& o, std::optional<std::uint64_t> seed) {
  Inputs in;
  const int sessions = o.smoke ? 24 : 300;
  in.verify_stride = o.smoke ? 4 : 10;
  for (afmm::EngineConfig* cfg : {&in.gravity_cfg, &in.stokes_cfg}) {
    cfg->fmm.order = 3;
    cfg->balancer.initial_S = 16;
    cfg->dt = 1e-3;
  }
  in.gravity_cfg.tree = make_tree_config({0, 0, 0}, 16.0, 16);
  in.stokes_cfg.tree = make_tree_config({0, 0, 0}, 2.0, 16);
  // Per-session recipes, each from its own stream so the plan is a pure
  // function of the session index.
  in.plans.resize(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    afmm::Rng rng(kBaseSeed * 1000003ULL + static_cast<std::uint64_t>(i));
    Plan& p = in.plans[static_cast<std::size_t>(i)];
    p.name = "s" + std::to_string(i);
    p.stokes = i % 3 == 2;
    p.priority = 1 + i % 3;
    p.total = 6 + static_cast<int>(rng.below(9));
    p.burst = 2 + static_cast<int>(rng.below(3));
    p.gap = 4 + static_cast<int>(rng.below(3));
    p.arrival = i / 4 + static_cast<int>(rng.below(3));
    const std::size_t n = 48 + rng.below(49);
    p.bodies = p.stokes ? afmm::uniform_cube(n, rng, {0, 0, 0}, 1.0)
                        : afmm::plummer(n, rng);
    if (seed) {
      const Rotation rotate(*seed * 1000003ULL + static_cast<std::uint64_t>(i),
                            false);
      for (auto& x : p.bodies.positions) x = rotate(x);
    }
    if (p.stokes) {
      p.factory = afmm::stokes_session_factory(
          in.stokes_cfg, in.epsilon, 1.0, in.node, p.bodies.positions,
          afmm::constant_force(in.force));
    } else {
      p.factory = afmm::gravity_session_factory(in.gravity_cfg, 1.0,
                                                in.softening, in.node, p.bodies);
    }
  }
  return in;
}

bool same_record(const afmm::StepRecord& a, const afmm::StepRecord& b) {
  return a.step == b.step && a.compute_seconds == b.compute_seconds &&
         a.cpu_seconds == b.cpu_seconds && a.gpu_seconds == b.gpu_seconds &&
         a.lb_seconds == b.lb_seconds && a.S == b.S && a.state == b.state &&
         a.rebuilt == b.rebuilt && a.enforce_ops == b.enforce_ops &&
         a.fgo_ops == b.fgo_ops &&
         a.predicted_far_seconds == b.predicted_far_seconds &&
         a.predicted_near_seconds == b.predicted_near_seconds &&
         a.capability_shift == b.capability_shift;
}

// What the first churn keeps of the sampled sessions for the solo replays.
struct Sampled {
  std::string name;
  std::uint64_t fingerprint = 0;
  std::vector<afmm::StepRecord> records;
};

// Set-up: a service with every session admitted.
double admit_all(Env& env, const Inputs& in, Tracer* tracer) {
  ProgramClock& clock = env.clock;
  env.calib.run(clock);
  const double t0 = clock.now();
  {
    PB_SPAN(tracer, "setup");
    afmm::ServiceConfig sc;
    sc.trace = true;
    sc.metrics = true;
    afmm::SimulationService service(sc);
    for (const Plan& p : in.plans) {
      PB_SPAN(tracer, "service.admit");
      service.admit(p.name, p.factory, afmm::SessionOptions{p.priority});
    }
  }
  const double setup = clock.now() - t0;
  env.calib.run(clock);
  return setup;
}

Episode churn(Env& env, const Inputs& in, Tracer* tracer,
              std::vector<Sampled>* sampled) {
  Episode ep;
  ProgramClock& clock = env.clock;
  ep.setup = admit_all(env, in, tracer);

  afmm::ServiceConfig sc;
  sc.quantum_seconds = 5e-3;
  sc.trace = true;
  sc.metrics = true;

  struct State {
    int requested = 0;
    int next_request_round = 0;
    bool admitted = false;
    bool done = false;
    double burst_start = -1.0;  // < 0: no burst open
  };
  const std::size_t n = in.plans.size();
  std::vector<State> st(n);
  std::size_t completed = 0;
  const int max_rounds = 20000;

  const double t0 = clock.now();
  afmm::SimulationService service(sc);
  int round = 0;
  for (; round < max_rounds && completed < n; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const Plan& p = in.plans[i];
      State& s = st[i];
      if (!s.admitted && p.arrival <= round) {
        PB_SPAN(tracer, "service.admit");
        service.admit(p.name, p.factory, afmm::SessionOptions{p.priority});
        s.admitted = true;
        s.next_request_round = round;
      }
      if (!s.admitted || s.done) continue;
      if (service.pending_steps(p.name) > 0) continue;
      if (s.requested == p.total) {
        std::uint64_t fp = 0;
        {
          PB_SPAN(tracer, "service.read");
          fp = service.state_fingerprint(p.name);
        }
        ep.fp.add(fp);
        if (sampled && i % static_cast<std::size_t>(in.verify_stride) == 0)
          clock.exclude([&] {
            sampled->push_back({p.name, fp, service.records(p.name)});
          });
        {
          PB_SPAN(tracer, "service.remove");
          service.remove(p.name);
        }
        s.done = true;
        ++completed;
      } else if (round >= s.next_request_round) {
        const int k = std::min(p.burst, p.total - s.requested);
        s.burst_start = clock.now();
        {
          PB_SPAN(tracer, "service.request");
          service.request_steps(p.name, k);
        }
        s.requested += k;
        s.next_request_round = round + p.gap;
      }
    }

    const double ts = clock.now();
    int executed = 0;
    {
      PB_SPAN(tracer, "service.round");
      executed = service.run_round();
    }
    const double te = clock.now();
    if (executed > 0) ep.steps.push_back(te - ts);
    clock.exclude([&] {
      for (std::size_t i = 0; i < n; ++i) {
        State& s = st[i];
        if (s.burst_start >= 0.0 && service.pending_steps(in.plans[i].name) == 0) {
          ep.bursts.push_back(te - s.burst_start);
          s.burst_start = -1.0;
        }
      }
    });
    env.calib.run(clock);
  }
  ep.wall = clock.now() - t0;

  ep.operations = static_cast<long>(service.history().size() + n);
  if (completed != n)
    ep.failures.push_back("only " + std::to_string(completed) + " of " +
                          std::to_string(n) + " sessions completed");
  if (service.quota_violations() != 0)
    ep.failures.push_back("scheduler counted quota violations");
  ep.virtual_total = service.clock().busy_seconds();
  ep.fp.add(service.rounds());
  ep.fp.add(static_cast<std::uint64_t>(service.history().size()));
  ep.fp.add(ep.virtual_total);
  return ep;
}

// Replays each sampled session alone and compares it with the service run.
void verify(const Inputs& in, std::vector<Sampled> sampled, Env& env,
            Report& r) {
  if (env.opt.breaks == "divergence" && !sampled.empty())
    sampled.front().fingerprint ^= 1;
  for (const Sampled& s : sampled) {
    const Plan* plan = nullptr;
    for (const Plan& p : in.plans)
      if (p.name == s.name) plan = &p;
    auto solo = plan->factory.fresh();
    std::vector<afmm::StepRecord> records;
    for (int k = 0; k < plan->total; ++k) records.push_back(solo->step_once());
    bool ok = solo->state_fingerprint() == s.fingerprint &&
              records.size() == s.records.size();
    for (std::size_t k = 0; ok && k < records.size(); ++k)
      ok = same_record(records[k], s.records[k]);
    ++r.attempted;
    if (!ok) {
      ++r.failed;
      r.gate(false, "session " + s.name + " diverged from its solo replay");
    }
  }
  r.notes["workload.sessions_verified"] = std::to_string(sampled.size());
}

// Accuracy of the sessions' solver configuration (p = 3, theta = 0.55) on
// the sampled sessions' bodies of the unrotated base schedule, pooled per
// problem class; the worse class is reported. At the sessions' own S = 16 almost every pair of a
// 48-96 body problem is direct and the error sits at rounding level, so the
// check runs at leaf capacity 4, where the far field carries real work.
double sessions_rel_err(const Inputs& in) {
  ErrorAccum gravity, stokes;
  for (std::size_t i = 0; i < in.plans.size();
       i += static_cast<std::size_t>(in.verify_stride)) {
    const Plan& p = in.plans[i];
    const afmm::EngineConfig& cfg = p.stokes ? in.stokes_cfg : in.gravity_cfg;
    afmm::TreeConfig tc = cfg.tree;
    tc.leaf_capacity = 4;
    if (p.stokes) {
      const std::vector<afmm::Vec3> forces(p.bodies.size(), in.force);
      stokes_solve_error(p.bodies.positions, forces, tc, cfg.fmm, in.node,
                         in.epsilon, 1024, stokes);
    } else {
      gravity_solve_error(p.bodies.positions, p.bodies.masses, tc, cfg.fmm,
                          in.node, afmm::GravityKernel(in.softening), 1024,
                          gravity);
    }
  }
  return std::max(gravity.rel(), stokes.rel());
}

}  // namespace

void service_churn(Env& env, Report& r) {
  const Inputs in = make_inputs(env.opt, env.opt.seed);
  const int min_episodes = env.opt.smoke ? 2 : 3;
  // Arrivals span sessions/4 rounds, and every session asks for at least
  // two bursts: lower bounds on the per-churn sample counts.
  r.min_steps = static_cast<std::size_t>(min_episodes) * in.plans.size() / 4;
  r.min_bursts = static_cast<std::size_t>(min_episodes) * in.plans.size() * 2;
  r.notes["workload.sessions"] = std::to_string(in.plans.size());
  r.rel_err_tol = 5e-3;
  env.clock.exclude(
      [&] { r.rel_err = sessions_rel_err(make_inputs(env.opt, std::nullopt)); });

  bool first = true;
  auto untraced = [&](int) {
    std::vector<Sampled> sampled;
    Episode ep = churn(env, in, nullptr, first ? &sampled : nullptr);
    if (first) {
      env.clock.exclude([&] { verify(in, std::move(sampled), env, r); });
      first = false;
    }
    return ep;
  };
  auto traced = [&](Tracer& tracer, std::map<std::string, double>&) {
    return churn(env, in, &tracer, nullptr);
  };
  drive(env, r, 1, min_episodes, 0, untraced, traced, [] { return 0.0; });
}

}  // namespace perfbench
