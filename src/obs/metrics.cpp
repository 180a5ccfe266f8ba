#include "obs/metrics.hpp"

#include <cstdio>
#include <fstream>
#include <limits>

namespace afmm {

namespace {

std::string fmt_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string bucket_label(const std::string& name, double bound) {
  return name + ".le_" + fmt_number(bound);
}

}  // namespace

MetricsRegistry::Counter& MetricsRegistry::counter_slot(
    const std::string& name) {
  for (auto& c : counters_)
    if (c.name == name) return c;
  counters_.push_back({name, 0.0});
  return counters_.back();
}

MetricsRegistry::Gauge& MetricsRegistry::gauge_slot(const std::string& name) {
  for (auto& g : gauges_)
    if (g.name == name) return g;
  gauges_.push_back({name, 0.0});
  return gauges_.back();
}

void MetricsRegistry::add_counter(const std::string& name, double delta) {
  counter_slot(name).value += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  gauge_slot(name).value = value;
}

void MetricsRegistry::define_histogram(const std::string& name,
                                       std::vector<double> upper_bounds) {
  for (const auto& h : histograms_)
    if (h.name == name) return;
  Histogram h;
  h.name = name;
  h.upper_bounds = std::move(upper_bounds);
  h.bucket_counts.assign(h.upper_bounds.size() + 1, 0);
  histograms_.push_back(std::move(h));
}

void MetricsRegistry::observe(const std::string& name, double value) {
  for (auto& h : histograms_) {
    if (h.name != name) continue;
    std::size_t b = 0;
    while (b < h.upper_bounds.size() && value > h.upper_bounds[b]) ++b;
    ++h.bucket_counts[b];
    ++h.count;
    h.sum += value;
    return;
  }
  // Undeclared histogram: observe into a single +inf bucket rather than
  // dropping data silently.
  define_histogram(name, {});
  observe(name, value);
}

void MetricsRegistry::sample(int step) {
  for (const auto& c : counters_) rows_.push_back({step, c.name, c.value});
  for (const auto& g : gauges_) rows_.push_back({step, g.name, g.value});
  for (const auto& h : histograms_) {
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.upper_bounds.size(); ++b) {
      cumulative += h.bucket_counts[b];
      rows_.push_back({step, bucket_label(h.name, h.upper_bounds[b]),
                       static_cast<double>(cumulative)});
    }
    cumulative += h.bucket_counts.back();
    rows_.push_back(
        {step, h.name + ".le_inf", static_cast<double>(cumulative)});
    rows_.push_back({step, h.name + ".count", static_cast<double>(h.count)});
    rows_.push_back({step, h.name + ".sum", h.sum});
  }
}

double MetricsRegistry::row_value(int step, const std::string& metric) const {
  for (const auto& r : rows_)
    if (r.step == step && r.metric == metric) return r.value;
  return std::numeric_limits<double>::quiet_NaN();
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  os << "step,metric,value\n";
  for (const auto& r : rows_)
    os << r.step << "," << r.metric << "," << fmt_number(r.value) << "\n";
}

bool MetricsRegistry::write_csv_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_csv(f);
  return static_cast<bool>(f);
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "[";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (i) os << ",";
    os << "{\"step\":" << rows_[i].step << ",\"metric\":\"" << rows_[i].metric
       << "\",\"value\":" << fmt_number(rows_[i].value) << "}";
  }
  os << "]\n";
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_json(f);
  return static_cast<bool>(f);
}

}  // namespace afmm
