#include "harness/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace nbctune::harness {

std::string Table::num(double v, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << v;
  return oss.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto line = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      os << (c == 0 ? "" : "  ") << std::left << std::setw(int(width[c]))
         << cell;
    }
    os << '\n';
  };
  line(header_);
  std::string sep;
  for (std::size_t c = 0; c < width.size(); ++c) {
    sep += std::string(width[c], '-') + (c + 1 < width.size() ? "  " : "");
  }
  os << sep << '\n';
  for (const auto& row : rows_) line(row);
}

void banner(const std::string& title, std::ostream& os) {
  os << '\n' << std::string(72, '=') << '\n'
     << title << '\n'
     << std::string(72, '=') << '\n';
}

}  // namespace nbctune::harness
