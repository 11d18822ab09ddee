// Aligned-column table output for the experiment harnesses, mirroring the
// rows/series of the paper's figures.

#ifndef FLASHDB_HARNESS_TABLE_PRINTER_H_
#define FLASHDB_HARNESS_TABLE_PRINTER_H_

#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace flashdb::harness {

/// Collects rows and prints them with aligned columns.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  /// Formats a double with `prec` decimals.
  static std::string Num(double v, int prec = 1);

  void Print(std::ostream& os) const;

  /// Writes the table as a JSON array of row objects keyed by the header
  /// (cells stay strings; consumers parse numbers as needed).
  void WriteJson(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Accumulates named result tables over a bench run and, when the bench was
/// invoked with a --json=<path> flag, writes them to that path as one JSON
/// object {name: [rows...], ...} -- the machine-readable form behind every
/// bench's --json flag, so perf trajectories (BENCH_*.json) can be recorded
/// run-over-run. With no --json flag both Add and Finish are no-ops, so
/// benches can record unconditionally.
class JsonDump {
 public:
  explicit JsonDump(std::string path) : path_(std::move(path)) {}

  void Add(std::string name, const TablePrinter& table) {
    if (!path_.empty()) tables_.emplace_back(std::move(name), table);
  }

  /// Writes the collected tables and, when it holds an epoch, the binary's
  /// metrics registry (harness::Metrics()) as "metrics"; returns false
  /// (after printing to stderr) when the file cannot be written.
  bool Finish() const;

 private:
  std::string path_;
  std::vector<std::pair<std::string, TablePrinter>> tables_;
};

}  // namespace flashdb::harness

#endif  // FLASHDB_HARNESS_TABLE_PRINTER_H_
