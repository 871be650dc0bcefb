#ifndef PRISTI_COMMON_TABLE_PRINTER_H_
#define PRISTI_COMMON_TABLE_PRINTER_H_

// Plain-text table and CSV emission for the benchmark harness. Every
// experiment of the paper-evaluation driver prints the rows of the paper
// table it reproduces through this class so the output format is uniform
// across experiments.

#include <string>
#include <vector>

namespace pristi {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  // Appends one row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  // Renders an aligned, pipe-separated table.
  std::string ToText() const;

  // Renders RFC-4180-ish CSV (fields containing commas/quotes are quoted).
  std::string ToCsv() const;

  // Writes CSV to `path`; returns false (and logs) on I/O failure.
  bool WriteCsv(const std::string& path) const;

  // Formats a double with fixed precision; convenience for callers.
  static std::string Num(double value, int precision = 4);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pristi

#endif  // PRISTI_COMMON_TABLE_PRINTER_H_
