#include "service/session.hpp"

#include <cstring>
#include <utility>

#include "core/problems.hpp"

namespace afmm {

namespace {

// FNV-1a over raw double bytes: cheap, order-sensitive, and bit-exact --
// any single flipped mantissa bit anywhere in the state changes it.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv_vec3s(std::uint64_t h, const std::vector<Vec3>& v) {
  for (const Vec3& x : v) {
    h = fnv1a(h, &x.x, sizeof x.x);
    h = fnv1a(h, &x.y, sizeof x.y);
    h = fnv1a(h, &x.z, sizeof x.z);
  }
  return h;
}

std::uint64_t fingerprint(const GravityProblem& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv_vec3s(h, p.bodies().positions);
  h = fnv_vec3s(h, p.bodies().velocities);
  return h;
}

std::uint64_t fingerprint(const StokesProblem& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv_vec3s(h, p.position_vector());
  h = fnv_vec3s(h, p.velocities());
  return h;
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
