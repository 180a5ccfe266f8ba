#include "service/service.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace afmm {

namespace {

// Virtual seconds the shared clock idles when a round finds no demand.
constexpr double kIdleGapSeconds = 1e-3;

std::string fmt_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

SimulationService::SimulationService(ServiceConfig config)
    : config_(std::move(config)) {
  config_.quantum_seconds = std::max(0.0, config_.quantum_seconds);
  if (config_.trace) trace_ = std::make_unique<TraceRecorder>();
  if (config_.metrics) {
    metrics_ = std::make_unique<MetricsRegistry>();
    // Pre-register the monotone counters so every sample carries them from
    // round 0 (the --service validator checks monotonicity).
    metrics_->add_counter("service.admitted_total", 0.0);
    metrics_->add_counter("service.departed_total", 0.0);
    metrics_->add_counter("service.steps_total", 0.0);
    metrics_->add_counter("service.rounds_total", 0.0);
    metrics_->add_counter("service.evictions_total", 0.0);
    metrics_->add_counter("service.restores_total", 0.0);
    metrics_->add_counter("service.quota_violations_total", 0.0);
  }
}

SimulationService::Session& SimulationService::at(const std::string& name) {
  auto it = sessions_.find(name);
  if (it == sessions_.end())
    throw std::out_of_range("no such session: " + name);
  return it->second;
}

const SimulationService::Session& SimulationService::at(
    const std::string& name) const {
  auto it = sessions_.find(name);
  if (it == sessions_.end())
    throw std::out_of_range("no such session: " + name);
  return it->second;
}

void SimulationService::service_instant(const std::string& what,
                                        const std::string& session,
                                        double step) {
  if (!trace_) return;
  std::vector<TraceArg> args{TraceArg::str("session", session)};
  if (step >= 0.0) args.push_back(TraceArg::num("step", step));
  trace_->instant(TraceRecorder::kVirtualPid, "service", what, "service",
                  clock_.now(), std::move(args));
}

void SimulationService::attach_obs(const std::string& name, Session& s) {
  if (trace_ || s.metrics)
    s.engine->set_external_obs(trace_.get(), s.metrics.get(), name);
}

void SimulationService::admit(const std::string& name, SessionFactory factory,
                              SessionOptions opts) {
  if (name.empty() || !valid_store_owner(name))
    throw std::invalid_argument("session name '" + name +
                                "' invalid: non-empty [A-Za-z0-9.-] required");
  if (sessions_.count(name))
    throw std::invalid_argument("session name '" + name + "' already in use");
  if (!factory.fresh)
    throw std::invalid_argument("session factory has no fresh() closure");
  Session s;
  s.factory = std::move(factory);
  s.opts = opts;
  s.opts.priority = std::max(1, s.opts.priority);
  if (config_.metrics) s.metrics = std::make_unique<MetricsRegistry>();
  s.engine = s.factory.fresh();
  attach_obs(name, s);
  sessions_.emplace(name, std::move(s));
  order_.push_back(name);
  if (metrics_) metrics_->add_counter("service.admitted_total", 1.0);
  service_instant("admit", name);
}

void SimulationService::request_steps(const std::string& name, int steps) {
  Session& s = at(name);
  if (s.departed)
    throw std::invalid_argument("session '" + name + "' has departed");
  s.demand += std::max(0, steps);
}

void SimulationService::remove(const std::string& name) {
  Session& s = at(name);
  if (s.departed) return;
  s.engine.reset();
  s.demand = 0;
  s.deficit = 0.0;
  s.evicted = false;
  s.departed = true;
  if (metrics_) metrics_->add_counter("service.departed_total", 1.0);
  service_instant("depart", name);
}

void SimulationService::ensure_resident(const std::string& name, Session& s,
                                        bool* restored) {
  if (s.engine) return;
  if (s.departed)
    throw std::logic_error("session '" + name + "' has departed");
  if (!s.evicted || !s.store)
    throw std::logic_error("session '" + name + "' has no engine to restore");
  if (!s.factory.restore)
    throw std::logic_error("session '" + name + "' factory cannot restore");
  std::string error;
  auto ckpt = s.store->load(s.evicted_step, &error);
  if (!ckpt)
    throw std::runtime_error("restore of '" + name + "' failed: " + error);
  s.engine = s.factory.restore(*ckpt);
  attach_obs(name, s);
  s.evicted = false;
  ++restores_;
  if (metrics_) metrics_->add_counter("service.restores_total", 1.0);
  service_instant("restore", name, ckpt->step);
  if (restored) *restored = true;
}

void SimulationService::do_evict(const std::string& name, Session& s) {
  if (!s.store)
    s.store.emplace(config_.checkpoint_dir, config_.checkpoint_keep, name);
  const SimCheckpoint ckpt = s.engine->checkpoint();
  s.cached_predicted = s.engine->predicted_step_seconds();
  std::string error;
  if (!s.store->save(ckpt, &error))
    throw std::runtime_error("eviction of '" + name + "' failed: " + error);
  s.engine.reset();
  s.evicted = true;
  s.evicted_step = ckpt.step;
  ++evictions_;
  if (metrics_) metrics_->add_counter("service.evictions_total", 1.0);
  service_instant("evict", name, ckpt.step);
}

bool SimulationService::evict(const std::string& name) {
  Session& s = at(name);
  if (s.departed || config_.checkpoint_dir.empty()) return false;
  if (!s.engine || !s.engine->prepared()) return false;
  do_evict(name, s);
  return true;
}

int SimulationService::resident_count() const {
  int n = 0;
  for (const auto& [name, s] : sessions_)
    if (s.engine && s.engine->prepared()) ++n;
  return n;
}

int SimulationService::run_round() {
  const int round = rounds_++;
  int executed = 0;

  // Earn: every session with pending demand banks its quantum.
  for (const auto& name : order_) {
    Session& s = at(name);
    s.ran_this_round = 0;
    if (!s.departed && s.demand > 0)
      s.deficit += config_.quantum_seconds * s.opts.priority;
  }

  // Serve, in admission order. A session runs steps while its deficit
  // covers the cost model's forecast, and each step is charged at actual
  // cost -- the quota the bench audits from the ExecutedStep log.
  for (const auto& name : order_) {
    Session& s = at(name);
    if (s.departed || s.demand == 0) continue;
    bool restored = false;
    while (s.demand > 0) {
      double predicted =
          s.engine ? s.engine->predicted_step_seconds() : s.cached_predicted;
      if (s.deficit < predicted) break;  // budget spent; wait for next round
      ensure_resident(name, s, &restored);
      predicted = s.engine->predicted_step_seconds();
      const double deficit_before = s.deficit;
      if (deficit_before < predicted) {
        // Unreachable by construction (the cached forecast equals the
        // restored engine's recomputation); counted, never silently eaten.
        ++quota_violations_;
        if (metrics_)
          metrics_->add_counter("service.quota_violations_total", 1.0);
        break;
      }
      const double start = clock_.now();
      s.engine->set_virtual_now(start);
      const StepRecord rec = s.engine->step_once();
      const double cost = rec.total_seconds();
      clock_.acquire(name, cost);
      s.deficit -= cost;
      s.cached_predicted = s.engine->predicted_step_seconds();
      --s.demand;
      ++s.steps_run;
      ++s.ran_this_round;
      ++executed;
      history_.push_back({round, name, rec.step, start, cost, predicted,
                          deficit_before, restored});
      restored = false;
      s.records.push_back(rec);
    }
    // Classic DRR: an emptied queue forfeits its leftover deficit -- idle
    // sessions cannot bank machine time against future bursts.
    if (s.demand == 0) s.deficit = 0.0;
  }

  // Idle bookkeeping + eviction sweep.
  for (const auto& name : order_) {
    Session& s = at(name);
    if (s.departed) continue;
    // A round counts as idle only if the session neither has demand nor
    // executed anything -- the round that drains a burst is not idle.
    s.idle_rounds =
        s.demand == 0 && s.ran_this_round == 0 ? s.idle_rounds + 1 : 0;
    if (config_.idle_evict_rounds > 0 && !config_.checkpoint_dir.empty() &&
        s.engine && s.engine->prepared() && s.demand == 0 &&
        s.idle_rounds >= config_.idle_evict_rounds)
      do_evict(name, s);
  }

  // Residency pressure: spill the longest-idle demandless engines until the
  // cap holds (demanding sessions are never spilled -- they are about to
  // run).
  if (config_.max_resident > 0 && !config_.checkpoint_dir.empty()) {
    while (resident_count() > config_.max_resident) {
      std::string victim;
      int best_idle = -1;
      for (const auto& name : order_) {
        Session& s = at(name);
        if (s.departed || !s.engine || !s.engine->prepared()) continue;
        if (s.demand > 0) continue;
        if (s.idle_rounds > best_idle) {
          best_idle = s.idle_rounds;
          victim = name;
        }
      }
      if (victim.empty()) break;  // every resident engine has demand
      do_evict(victim, at(victim));
    }
  }

  if (executed == 0) clock_.idle(kIdleGapSeconds);
  if (metrics_) {
    metrics_->add_counter("service.rounds_total", 1.0);
    metrics_->add_counter("service.steps_total", executed);
  }
  sample_service_metrics(round, executed);
  return executed;
}

int SimulationService::run_until_idle(int max_rounds) {
  int total = 0;
  for (int i = 0; i < max_rounds; ++i) {
    bool pending = false;
    for (const auto& [name, s] : sessions_)
      if (!s.departed && s.demand > 0) pending = true;
    if (!pending) return total;
    total += run_round();
  }
  throw std::runtime_error(
      "demand still pending after max_rounds scheduling rounds "
      "(quantum_seconds too small?)");
}

void SimulationService::sample_service_metrics(int round, int executed) {
  if (!metrics_) return;
  int live = 0, pending = 0, spilled = 0;
  for (const auto& [name, s] : sessions_) {
    if (s.departed) continue;
    ++live;
    pending += s.demand;
    if (s.evicted) ++spilled;
  }
  metrics_->set_gauge("service.sessions", live);
  metrics_->set_gauge("service.resident_engines", resident_count());
  metrics_->set_gauge("service.evicted_sessions", spilled);
  metrics_->set_gauge("service.pending_steps", pending);
  metrics_->set_gauge("service.round_steps", executed);
  metrics_->set_gauge("service.clock_seconds", clock_.now());
  metrics_->set_gauge("service.clock_busy_seconds", clock_.busy_seconds());
  metrics_->set_gauge("service.clock_idle_seconds", clock_.idle_seconds());
  metrics_->set_gauge("service.clock_utilization", clock_.utilization());
  metrics_->sample(round);
}

bool SimulationService::has_session(const std::string& name) const {
  auto it = sessions_.find(name);
  return it != sessions_.end() && !it->second.departed;
}

bool SimulationService::resident(const std::string& name) const {
  const Session& s = at(name);
  return s.engine && s.engine->prepared();
}

bool SimulationService::evicted(const std::string& name) const {
  return at(name).evicted;
}

int SimulationService::pending_steps(const std::string& name) const {
  return at(name).demand;
}

int SimulationService::steps_run(const std::string& name) const {
  return at(name).steps_run;
}

std::uint64_t SimulationService::state_fingerprint(const std::string& name) {
  Session& s = at(name);
  if (s.departed)
    throw std::logic_error("session '" + name + "' has departed");
  ensure_resident(name, s, nullptr);
  return s.engine->state_fingerprint();
}

const std::vector<StepRecord>& SimulationService::records(
    const std::string& name) const {
  return at(name).records;
}

const MetricsRegistry* SimulationService::session_metrics(
    const std::string& name) const {
  return at(name).metrics.get();
}

bool SimulationService::write_merged_metrics_csv(
    const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "step,metric,value\n";
  const auto dump = [&os](const MetricsRegistry& reg) {
    for (const auto& row : reg.rows())
      os << row.step << ',' << row.metric << ',' << fmt_number(row.value)
         << '\n';
  };
  if (metrics_) dump(*metrics_);
  for (const auto& name : order_) {
    const Session& s = at(name);
    if (s.metrics) dump(*s.metrics);
  }
  return static_cast<bool>(os);
}

}  // namespace afmm
