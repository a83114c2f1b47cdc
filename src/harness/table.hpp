#pragma once

// Minimal aligned-table printer used by the benchmark binaries to emit
// the rows and series of the paper's figures.

#include <iostream>
#include <string>
#include <vector>

namespace nbctune::harness {

/// Column-aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  /// Convenience: format a double with fixed precision.
  static std::string num(double v, int precision = 4);

  void print(std::ostream& os = std::cout) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Print a figure banner: which paper artifact a bench section reproduces.
void banner(const std::string& title, std::ostream& os = std::cout);

}  // namespace nbctune::harness
