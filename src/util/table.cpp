#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace afmm {

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

void Table::mirror_csv(const std::string& path) {
  csv_.open(path);
  write_csv_line(columns_);
  for (const auto& row : rows_) write_csv_line(row);
}

void Table::add_row(const std::vector<std::string>& cells) {
  if (cells.size() != columns_.size())
    throw std::invalid_argument("Table::add_row: wrong cell count");
  rows_.push_back(cells);
  write_csv_line(cells);
}

void Table::write_csv_line(const std::vector<std::string>& cells) {
  if (!csv_) return;
  for (std::size_t i = 0; i < cells.size(); ++i)
    csv_ << (i ? "," : "") << cells[i];
  csv_ << '\n';
  csv_.flush();
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

std::string Table::integer(long long v) { return std::to_string(v); }

void Table::print(const std::string& title) const {
  std::vector<std::size_t> width(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) width[c] = columns_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto line = [&](const std::vector<std::string>& cells) {
    std::string out;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out += cells[c];
      out.append(width[c] - cells[c].size() + 2, ' ');
    }
    std::cout << out << '\n';
  };

  if (!title.empty()) std::cout << "\n== " << title << " ==\n";
  line(columns_);
  std::size_t total = 0;
  for (auto w : width) total += w + 2;
  std::cout << std::string(total, '-') << '\n';
  for (const auto& row : rows_) line(row);
  std::cout.flush();
}

}  // namespace afmm
