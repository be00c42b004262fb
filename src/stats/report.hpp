// Small text-table and CSV helpers shared by the bench harness.
#pragma once

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

namespace asfsim {

/// Fixed-width text table: set headers, add string rows, print.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

  /// Formatting helpers.
  static std::string pct(double fraction, int decimals = 1);
  static std::string num(double v, int decimals = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// CSV writer; silently inactive when the path is empty.
class CsvWriter {
 public:
  CsvWriter(const std::string& dir, const std::string& name);
  void row(const std::vector<std::string>& cells);
  [[nodiscard]] bool active() const { return out_.is_open(); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::ofstream out_;
  std::string path_;
};

}  // namespace asfsim
