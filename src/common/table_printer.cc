#include "common/table_printer.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/check.h"
#include "common/logging.h"

namespace pristi {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {
  PRISTI_CHECK(!header_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  PRISTI_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

std::string TablePrinter::ToText() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (size_t c = 0; c < row.size(); ++c) {
      out << " " << std::left << std::setw(static_cast<int>(widths[c]))
          << row[c] << " |";
    }
    out << "\n";
  };
  emit_row(header_);
  out << "|";
  for (size_t c = 0; c < header_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

namespace {

std::string CsvEscape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string escaped = "\"";
  for (char ch : field) {
    if (ch == '"') escaped += '"';
    escaped += ch;
  }
  escaped += '"';
  return escaped;
}

}  // namespace

std::string TablePrinter::ToCsv() const {
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << ",";
      out << CsvEscape(row[c]);
    }
    out << "\n";
  };
  emit_row(header_);
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

bool TablePrinter::WriteCsv(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    PRISTI_LOG_WARNING << "failed to open " << path << " for writing";
    return false;
  }
  file << ToCsv();
  return static_cast<bool>(file);
}

std::string TablePrinter::Num(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

}  // namespace pristi
