// Console table / CSV emitter shared by the bench binaries.
//
// Every bench prints the same rows the paper's figure or table reports; this
// helper keeps the formatting uniform and optionally mirrors rows to a CSV
// file for plotting.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace afmm {

class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  // Mirror all rows to `path` as CSV: the header, the rows added so far and
  // every later one (best effort; failures are ignored so a read-only
  // working directory never breaks a bench run).
  void mirror_csv(const std::string& path);

  void add_row(const std::vector<std::string>& cells);

  // Convenience: formats doubles with `precision` significant digits.
  static std::string num(double v, int precision = 4);
  static std::string integer(long long v);

  // Render with aligned columns to stdout.
  void print(const std::string& title = "") const;

 private:
  void write_csv_line(const std::vector<std::string>& cells);

  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
  std::ofstream csv_;
};

}  // namespace afmm
