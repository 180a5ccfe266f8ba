// Shared machinery of the perfbench workloads.
//
// Every host time the benchmark reports is in REFERENCE seconds: the raw
// program time multiplied by kCalibRefSeconds / c, where c is the median
// time of a fixed calibration sweep that runs between the steps of the same
// run. The sweep is owned by the benchmark, so no change to the program can
// move it; what it tracks is the speed of the virtual CPU itself, which on a
// shared VM drifts by 5-30% from run to run. Raw seconds stay visible as
// host.raw_wall_s in the traced run.
//
// The ProgramClock excludes benchmark-owned work (calibration sweeps, input
// generation, span bookkeeping) from every interval the workloads time, so a
// step time is the program's time only.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/vec3.hpp"

namespace perfbench {

// Seconds one calibration sweep takes on the reference machine: a 4-vCPU
// x86-64 VM (Intel Xeon, 8 MiB L2 per core) at 2 pinned OpenMP threads,
// where the sweep's median ranged 0.53-0.85 ms over an hour of runs.
inline constexpr double kCalibRefSeconds = 0.75e-3;

double raw_now();  // steady clock, seconds

// Sets the OpenMP team size every parallel region of the run uses.
void set_threads(int threads);

class ProgramClock {
 public:
  double now() const { return raw_now() - excluded_; }
  // Runs `f` with its duration removed from this clock.
  template <class F>
  void exclude(F&& f) {
    const double t0 = raw_now();
    f();
    excluded_ += raw_now() - t0;
  }

 private:
  double excluded_ = 0.0;
};

// Softened 1/r^3 sweep of a fixed 64 x 4,096 block over the current OpenMP
// team: under a millisecond of pure arithmetic on data that stays in L2.
class Calibration {
 public:
  Calibration();
  // One timed sweep, excluded from `clock`.
  void run(ProgramClock& clock);
  double median_seconds() const;
  // Multiply raw seconds by this to get reference seconds.
  double scale() const { return kCalibRefSeconds / median_seconds(); }
  std::size_t samples() const { return samples_.size(); }

 private:
  double sweep() const;
  std::vector<afmm::Vec3> targets_;
  std::vector<afmm::Vec3> sources_;
  std::vector<double> masses_;
  std::vector<double> samples_;
  double sink_ = 0.0;  // sweep results, kept so the sweep cannot be elided
};

// In-memory spans (name, start, end, parent) on the program clock, written
// out once at exit. Self time is a span's duration minus its children's.
class Tracer {
 public:
  explicit Tracer(const ProgramClock* clock) : clock_(clock) {}

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
  };

  // Self seconds summed per span name, over spans with index >= `from`.
  std::map<std::string, double> self_by_name(std::size_t from = 0) const;
  // Total duration per span name, over spans with index >= `from`.
  std::map<std::string, double> total_by_name(std::size_t from = 0) const;
  std::size_t size() const { return spans_.size(); }
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
  };
  const ProgramClock* clock_;
  std::vector<Span> spans_;
  int top_ = -1;
};

// RAII span that is a no-op when `tracer` is null (the untraced run).
#define PB_CONCAT2(a, b) a##b
#define PB_CONCAT(a, b) PB_CONCAT2(a, b)
#define PB_SPAN(tracer, name) \
  ::perfbench::Tracer::Scope PB_CONCAT(pb_span_, __LINE__)(tracer, name)

// FNV-1a over the bits of everything added: the run fingerprint the traced
// run must reproduce and every episode of a run must repeat.
class Fingerprint {
 public:
  void bytes(const void* data, std::size_t n);
  void add(double v) { bytes(&v, sizeof v); }
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(int v) { bytes(&v, sizeof v); }
  void add(const afmm::Vec3& v) {
    add(v.x);
    add(v.y);
    add(v.z);
  }
  template <class T>
  void add_all(const std::vector<T>& v) {
    for (const T& x : v) add(x);
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);
// Highest of p99/p95/p90/p75/p50 that leaves at least ten of `n` samples
// beyond it. Workloads pass their guaranteed minimum sample count, so the
// same percentile is reported on every run.
double tail_quantile(std::size_t n);

// Relative L2 error of approximate against exact vectors, pooled over every
// pair added (so several small solves give one steady figure).
class ErrorAccum {
 public:
  void add(const afmm::Vec3& approx, const afmm::Vec3& exact) {
    num_ += afmm::norm2(approx - exact);
    den_ += afmm::norm2(exact);
  }
  double rel() const;

 private:
  double num_ = 0.0;
  double den_ = 0.0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  int threads = 2;
  std::string out_dir;   // span traces (inside the checkout)
  std::string breaks;    // self-test: name of a gate to force failing
};

// What a workload hands back. Host times are raw program-clock seconds;
// main() scales them to reference seconds.
struct Report {
  std::vector<double> setup;  // one entry per setup
  std::vector<double> step;   // one entry per step (or service round)
  std::vector<double> wall;   // one entry per episode
  std::vector<double> burst;  // one entry per burst
  std::size_t min_steps = 0;  // guaranteed sample counts (fix the tail rank)
  std::size_t min_bursts = 0;
  int episodes = 0;
  double virtual_total = 0.0;
  double rel_err = 0.0;
  double rel_err_tol = 0.0;
  std::string fingerprint;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> gate_failures;
  // Traced run only: per-layer values by metric name (host seconds raw;
  // main() scales the names it knows to be times) and the raw wall of the
  // untraced reference episode and of the traced episodes.
  std::map<std::string, double> layer;
  double traced_wall = 0.0;
  double untraced_wall = 0.0;
  double coverage = 1.0;
  std::map<std::string, std::string> notes;

  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
};

// Everything a workload needs from the process.
struct Env {
  Options opt;
  ProgramClock clock;
  Calibration calib;
  // Episodes continue while the run is younger than opt.seconds and the
  // previous episode's length still fits.
  double run_start = 0.0;
  bool time_for_another(double last_episode_raw, int done, int min_done) const;
};

// Per-layer self times collected from one traced episode.
void add_layer_times(const Tracer& tracer, std::size_t from,
                     std::map<std::string, double>& layer);
// Share of traced step time that layer spans cover: 1 - (self time of the
// "step" spans) / (their duration minus benchmark-owned input generation);
// 0 when there are no step spans (the service churn).
double span_coverage(const Tracer& tracer, std::size_t from);

// Workloads without a request queue report bursts as requests of
// kBurstSteps consecutive steps (the mean burst of the service churn):
// appends each such request's summed time, dropping a trailing partial one.
inline constexpr std::size_t kBurstSteps = 3;
void group_bursts(const std::vector<double>& steps,
                  std::vector<double>& bursts);

// One episode: a fixed piece of work on the run's inputs (set-up plus a
// fixed number of steps, or one whole service churn). Raw program seconds.
struct Episode {
  double setup = 0.0;
  std::vector<double> steps;
  std::vector<double> bursts;  // empty: group_bursts() over `steps`
  double wall = 0.0;
  double virtual_total = 0.0;
  Fingerprint fp;
  long operations = 0;                // attempted operations
  std::vector<std::string> failures;  // one entry per failed operation
};

// The run loop every workload shares. Untraced: episodes until the run's
// time is spent (at least `min_episodes`, which must be at least
// `realizations`). Episode e runs realization e % realizations of the
// seed's input (a workload whose results depend strongly on the exact
// input pools several per run); samples come from whole cycles of
// realizations only; every episode must repeat the fingerprint of its
// realization's first episode, and virtual_total is the mean over
// realizations. Set-up-only passes top the set-up samples up to
// `min_setups`. Traced: one untraced reference episode of realization 0,
// then traced episodes of it whose fingerprint must equal the reference;
// per-layer values are medians over the traced episodes.
template <class Untraced, class Traced, class SetupOnly>
void drive(Env& env, Report& r, int realizations, int min_episodes,
           std::size_t min_setups, Untraced&& untraced, Traced&& traced,
           SetupOnly&& setup_only) {
  auto account = [&](const Episode& ep) {
    r.attempted += ep.operations;
    r.failed += static_cast<long>(ep.failures.size());
    for (const auto& f : ep.failures) r.gate(false, f);
  };
  if (!env.opt.trace) {
    std::vector<std::string> first;  // per realization
    // Samples are pooled one whole cycle of realizations at a time, so every
    // run weighs the realizations equally whatever its episode count.
    std::vector<Episode> cycle;
    double last = 0.0;
    for (int e = 0; env.time_for_another(last, e, min_episodes); ++e) {
      const int k = e % realizations;
      const double t0 = raw_now();
      cycle.push_back(untraced(k));
      const Episode& ep = cycle.back();
      last = raw_now() - t0;
      account(ep);
      if (e < realizations) {
        first.push_back(ep.fp.hex());
        r.virtual_total += ep.virtual_total / realizations;
      } else if (ep.fp.hex() != first[static_cast<std::size_t>(k)] ||
                 env.opt.breaks == "determinism") {
        ++r.failed;
        r.gate(false, "episode fingerprint differs from the first episode");
      }
      ++r.episodes;
      if (static_cast<int>(cycle.size()) < realizations) continue;
      for (const Episode& c : cycle) {
        r.setup.push_back(c.setup);
        r.wall.push_back(c.wall);
        r.step.insert(r.step.end(), c.steps.begin(), c.steps.end());
        if (c.bursts.empty())
          group_bursts(c.steps, r.burst);
        else
          r.burst.insert(r.burst.end(), c.bursts.begin(), c.bursts.end());
      }
      cycle.clear();
    }
    while (r.setup.size() < min_setups) r.setup.push_back(setup_only());
    for (const auto& fp : first)
      r.fingerprint += (r.fingerprint.empty() ? "" : "+") + fp;
    return;
  }

  const Episode ref = untraced(0);
  account(ref);
  r.untraced_wall = ref.wall;
  r.virtual_total = ref.virtual_total;
  r.fingerprint = ref.fp.hex();
  Tracer tracer(&env.clock);
  std::vector<std::map<std::string, double>> layers;
  std::vector<double> walls, coverage;
  double last = 0.0;
  for (int e = 0; env.time_for_another(last, e, 1); ++e) {
    const double t0 = raw_now();
    const std::size_t from = tracer.size();
    std::map<std::string, double> layer;
    const Episode ep = traced(tracer, layer);
    last = raw_now() - t0;
    account(ep);
    add_layer_times(tracer, from, layer);
    std::string fp = ep.fp.hex();
    if (env.opt.breaks == "fingerprint") fp += "-broken";
    if (fp != r.fingerprint) {
      ++r.failed;
      r.gate(false, "traced run does not reproduce the untraced fingerprint");
    }
    walls.push_back(ep.wall);
    coverage.push_back(span_coverage(tracer, from));
    layers.push_back(std::move(layer));
    ++r.episodes;
  }
  for (const auto& entry : layers.front()) {
    std::vector<double> v;
    for (const auto& m : layers) v.push_back(m.count(entry.first) ? m.at(entry.first) : 0.0);
    r.layer[entry.first] = median(v);
  }
  r.traced_wall = median(walls);
  r.coverage = median(coverage);
  env.clock.exclude([&] {
    tracer.write_chrome_json(env.opt.out_dir + "/trace-" + env.opt.workload +
                             ".json");
  });
}

// Median far-field and P2P self seconds of `solve` (which must open the
// expansion.far and gpusim.p2p spans) at 1 thread and at the run's thread
// count; returns the two parallel efficiencies t1 / (T * tT).
template <class Solve>
std::pair<double, double> parallel_efficiency(Env& env, Solve&& solve) {
  auto pass = [&](std::vector<double>& far, std::vector<double>& p2p) {
    for (int k = 0; k < 3; ++k) {
      Tracer tracer(&env.clock);
      solve(&tracer);
      const auto self = tracer.self_by_name();
      far.push_back(self.count("expansion.far") ? self.at("expansion.far") : 0.0);
      p2p.push_back(self.count("gpusim.p2p") ? self.at("gpusim.p2p") : 0.0);
    }
  };
  std::vector<double> far_t, p2p_t, far_1, p2p_1;
  pass(far_t, p2p_t);
  set_threads(1);
  pass(far_1, p2p_1);
  set_threads(env.opt.threads);
  const double t = env.opt.threads;
  auto eff = [&](const std::vector<double>& one, const std::vector<double>& many) {
    const double m = median(many);
    return m > 0.0 ? median(one) / (t * m) : 0.0;
  };
  return {eff(far_1, far_t), eff(p2p_1, p2p_t)};
}

using Workload = void (*)(Env&, Report&);
void solve_plummer(Env& env, Report& r);
void sim_stokes_blob(Env& env, Report& r);
void replay_collapse(Env& env, Report& r);
void service_churn(Env& env, Report& r);

}  // namespace perfbench
