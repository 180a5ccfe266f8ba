#include "harness.hpp"

#include <omp.h>

#include <chrono>
#include <cmath>
#include <cstdio>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

double raw_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_threads(int threads) { omp_set_num_threads(threads); }

// ---- calibration -----------------------------------------------------------

namespace {
constexpr int kCalibTargets = 64;
constexpr int kCalibSources = 4096;
}  // namespace

Calibration::Calibration()
    : targets_(kCalibTargets), sources_(kCalibSources), masses_(kCalibSources) {
  afmm::Rng rng(0xca11b7a7eULL);
  for (auto& t : targets_)
    t = {rng.uniform(), rng.uniform(), rng.uniform()};
  for (int j = 0; j < kCalibSources; ++j) {
    sources_[j] = {rng.uniform(), rng.uniform(), rng.uniform()};
    masses_[j] = rng.uniform(0.5, 1.5);
  }
}

double Calibration::sweep() const {
  double acc = 0.0;
#pragma omp parallel for schedule(static) reduction(+ : acc)
  for (int i = 0; i < kCalibTargets; ++i) {
    const afmm::Vec3 xt = targets_[i];
    double ax = 0.0, ay = 0.0, az = 0.0;
    for (int j = 0; j < kCalibSources; ++j) {
      const double dx = sources_[j].x - xt.x;
      const double dy = sources_[j].y - xt.y;
      const double dz = sources_[j].z - xt.z;
      const double r2 = dx * dx + dy * dy + dz * dz + 1e-4;
      const double inv = 1.0 / std::sqrt(r2);
      const double w = masses_[j] * inv * inv * inv;
      ax += w * dx;
      ay += w * dy;
      az += w * dz;
    }
    acc += ax + ay + az;
  }
  return acc;
}

void Calibration::run(ProgramClock& clock) {
  clock.exclude([&] {
    const double t0 = raw_now();
    sink_ += sweep();
    samples_.push_back(raw_now() - t0);
  });
}

double Calibration::median_seconds() const {
  return samples_.empty() ? kCalibRefSeconds : median(samples_);
}

// ---- spans -----------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_) return;
  id_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, tracer_->clock_->now(), 0.0, tracer_->top_});
  tracer_->top_ = id_;
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  Span& s = tracer_->spans_[static_cast<std::size_t>(id_)];
  s.end = tracer_->clock_->now();
  tracer_->top_ = s.parent;
}

std::map<std::string, double> Tracer::total_by_name(std::size_t from) const {
  std::map<std::string, double> out;
  for (std::size_t i = from; i < spans_.size(); ++i)
    out[spans_[i].name] += spans_[i].end - spans_[i].start;
  return out;
}

std::map<std::string, double> Tracer::self_by_name(std::size_t from) const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = from; i < spans_.size(); ++i)
    self[i] += spans_[i].end - spans_[i].start;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= static_cast<int>(from))
      self[static_cast<std::size_t>(p)] -= spans_[i].end - spans_[i].start;
  }
  std::map<std::string, double> out;
  for (std::size_t i = from; i < spans_.size(); ++i)
    out[spans_[i].name] += self[i];
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                 i ? "," : "", s.name, (s.start - t0) * 1e6,
                 (s.end - s.start) * 1e6, i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace {

// Span name -> per-layer metric it is summed into. Spans not listed here
// (roots, service bookkeeping, benchmark-owned input generation) stay in the
// trace file only.
const std::map<std::string, std::string>& layer_of_span() {
  static const std::map<std::string, std::string> m = {
      {"octree.build", "octree.build_s"},
      {"octree.rebin", "octree.rebin_s"},
      {"octree.lists", "octree.lists_s"},
      {"expansion.far", "expansion.far_s"},
      {"gpusim.p2p", "gpusim.p2p_s"},
      {"machine.far_model", "machine.far_model_s"},
      {"machine.observe", "machine.observe_s"},
      {"balance.post_step", "balance.post_step_s"},
      {"core.solve", "core.step_s"},
      {"core.force", "core.step_s"},
      {"core.integrate", "core.integrate_s"},
      {"service.round", "service.round_s"},
  };
  return m;
}

}  // namespace

void add_layer_times(const Tracer& tracer, std::size_t from,
                     std::map<std::string, double>& layer) {
  for (const auto& [span, self] : tracer.self_by_name(from)) {
    auto it = layer_of_span().find(span);
    if (it != layer_of_span().end()) layer[it->second] += self;
  }
}

double span_coverage(const Tracer& tracer, std::size_t from) {
  const auto self = tracer.self_by_name(from);
  const auto total = tracer.total_by_name(from);
  if (!total.count("step")) return 0.0;
  double program = total.at("step");
  if (total.count("bench.positions")) program -= total.at("bench.positions");
  return program > 0.0 ? 1.0 - self.at("step") / program : 0.0;
}

// ---- fingerprint and statistics -------------------------------------------

void Fingerprint::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string Fingerprint::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  return v.empty() ? 0.0 : afmm::percentile(std::move(v), q);
}

double tail_quantile(std::size_t n) {
  for (double q : {0.99, 0.95, 0.90, 0.75})
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  return 0.5;
}

double ErrorAccum::rel() const {
  return den_ > 0.0 ? std::sqrt(num_ / den_) : 0.0;
}

void group_bursts(const std::vector<double>& steps,
                  std::vector<double>& bursts) {
  for (std::size_t i = 0; i + kBurstSteps <= steps.size(); i += kBurstSteps) {
    double sum = 0.0;
    for (std::size_t j = 0; j < kBurstSteps; ++j) sum += steps[i + j];
    bursts.push_back(sum);
  }
}

bool Env::time_for_another(double last_episode_raw, int done,
                           int min_done) const {
  if (done < min_done) return true;
  return raw_now() - run_start + last_episode_raw <= opt.seconds;
}

}  // namespace perfbench
