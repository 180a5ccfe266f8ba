#include "service/session.hpp"

#include <utility>

#include "core/problems.hpp"
#include "util/hash.hpp"

namespace afmm {

namespace {

// FNV-1a over the positions then the velocities: any single flipped
// mantissa bit anywhere in the state changes it.
std::uint64_t fingerprint(const std::vector<Vec3>& positions,
                          const std::vector<Vec3>& velocities) {
  const std::uint64_t h =
      fnv1a(positions.data(), positions.size() * sizeof(Vec3));
  return fnv1a(velocities.data(), velocities.size() * sizeof(Vec3), h);
}

std::uint64_t fingerprint(const GravityProblem& p) {
  return fingerprint(p.bodies().positions, p.bodies().velocities);
}

std::uint64_t fingerprint(const StokesProblem& p) {
  return fingerprint(p.position_vector(), p.velocities());
}

template <class Problem>
class TypedSessionEngine final : public SessionEngine {
 public:
  TypedSessionEngine(const EngineConfig& config, Problem problem)
      : engine_(DeferredInit{}, config, std::move(problem)) {}
  TypedSessionEngine(const EngineConfig& config, Problem problem,
                     const SimCheckpoint& ckpt)
      : engine_(config, std::move(problem), ckpt) {}

  SimKind kind() const override { return Problem::kKind; }
  bool prepared() const override { return engine_.prepared(); }
  void prepare() override { engine_.prepare(); }
  StepRecord step_once() override { return engine_.step_once(); }
  int steps_taken() const override { return engine_.steps_taken(); }
  double predicted_step_seconds() const override {
    return engine_.predicted_step_seconds();
  }
  SimCheckpoint checkpoint() const override { return engine_.checkpoint(); }
  void set_external_obs(TraceRecorder* trace, MetricsRegistry* metrics,
                        std::string tenant) override {
    engine_.set_external_obs(trace, metrics, std::move(tenant));
  }
  void set_virtual_now(double t) override { engine_.set_virtual_now(t); }
  double virtual_now() const override { return engine_.virtual_now(); }
  std::uint64_t state_fingerprint() const override {
    return fingerprint(engine_.problem());
  }

 private:
  SimulationEngine<Problem> engine_;
};

}  // namespace

SessionFactory gravity_session_factory(EngineConfig config, double grav_const,
                                       double softening, NodeSimulator node,
                                       ParticleSet bodies) {
  SessionFactory f;
  f.fresh = [=]() -> std::unique_ptr<SessionEngine> {
    return std::make_unique<TypedSessionEngine<GravityProblem>>(
        config,
        GravityProblem(config.fmm, grav_const, softening, node, bodies));
  };
  f.restore =
      [=](const SimCheckpoint& ckpt) -> std::unique_ptr<SessionEngine> {
    // The checkpoint carries the bodies; the problem starts empty and
    // load_state fills it.
    return std::make_unique<TypedSessionEngine<GravityProblem>>(
        config,
        GravityProblem(config.fmm, grav_const, softening, node, ParticleSet{}),
        ckpt);
  };
  return f;
}

SessionFactory stokes_session_factory(
    EngineConfig config, double epsilon, double viscosity, NodeSimulator node,
    std::vector<Vec3> positions,
    std::function<void(std::span<const Vec3>, std::span<Vec3>)> force_model) {
  SessionFactory f;
  f.fresh = [=]() -> std::unique_ptr<SessionEngine> {
    return std::make_unique<TypedSessionEngine<StokesProblem>>(
        config, StokesProblem(config.fmm, epsilon, viscosity, node, positions,
                              force_model));
  };
  f.restore =
      [=](const SimCheckpoint& ckpt) -> std::unique_ptr<SessionEngine> {
    return std::make_unique<TypedSessionEngine<StokesProblem>>(
        config,
        StokesProblem(config.fmm, epsilon, viscosity, node,
                      std::vector<Vec3>{}, force_model),
        ckpt);
  };
  return f;
}

}  // namespace afmm
