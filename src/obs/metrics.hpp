// Metrics registry: counters, gauges and fixed-bucket histograms, sampled
// once per simulation step into long-form rows.
//
// Instruments are registered lazily by name and keep insertion order, so a
// fixed-seed run samples to byte-identical CSV/JSON. sample(step) snapshots
// every instrument into `rows()`:
//
//   counters   -> one row with the cumulative value
//   gauges     -> one row with the last set value
//   histograms -> one cumulative row per bucket (`<name>.le_<bound>`, plus
//                 `<name>.le_inf`), a `<name>.count` and a `<name>.sum` row
//
// The exporters write the long form -- one (step, metric, value) per line --
// which plots directly with pandas/ggplot without schema coupling to the
// simulator. Like tracing, a disabled registry is a null sink: callers hold
// a `MetricsRegistry*` and skip emission when it is null.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace afmm {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  // Cumulative counter (monotone under non-negative deltas).
  void add_counter(const std::string& name, double delta = 1.0);
  // Last-value gauge.
  void set_gauge(const std::string& name, double value);
  // Fixed-bucket histogram; `upper_bounds` must be sorted ascending and is
  // fixed at first definition (later define calls are no-ops).
  void define_histogram(const std::string& name,
                        std::vector<double> upper_bounds);
  void observe(const std::string& name, double value);

  struct Row {
    int step = 0;
    std::string metric;
    double value = 0.0;
  };

  // Snapshot every instrument into rows tagged with `step`.
  void sample(int step);

  const std::vector<Row>& rows() const { return rows_; }
  // Value of `metric` at `step`, or NaN when never sampled.
  double row_value(int step, const std::string& metric) const;

  // step,metric,value (header included).
  void write_csv(std::ostream& os) const;
  bool write_csv_file(const std::string& path) const;
  // JSON array of {"step":s,"metric":"m","value":v} objects.
  void write_json(std::ostream& os) const;
  bool write_json_file(const std::string& path) const;

 private:
  struct Counter {
    std::string name;
    double value = 0.0;
  };
  struct Gauge {
    std::string name;
    double value = 0.0;
  };
  struct Histogram {
    std::string name;
    std::vector<double> upper_bounds;  // ascending; implicit +inf last
    std::vector<std::uint64_t> bucket_counts;  // size upper_bounds + 1
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  Counter& counter_slot(const std::string& name);
  Gauge& gauge_slot(const std::string& name);

  std::vector<Counter> counters_;
  std::vector<Gauge> gauges_;
  std::vector<Histogram> histograms_;
  std::vector<Row> rows_;
};

}  // namespace afmm
