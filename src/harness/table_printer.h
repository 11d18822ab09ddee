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

/// Writes `tables` to `path` as one JSON object {name: [rows...], ...} --
/// the machine-readable form behind every bench's --json flag, so perf
/// trajectories (BENCH_*.json) can be recorded run-over-run. `raw_objects`
/// are pre-serialized JSON values (e.g. an obs::MetricsRegistry dump)
/// emitted verbatim after the tables under their names. Returns false
/// (after printing to stderr) when the file cannot be written.
bool DumpTablesJson(
    const std::string& path,
    const std::vector<std::pair<std::string, const TablePrinter*>>& tables,
    const std::vector<std::pair<std::string, std::string>>& raw_objects = {});

/// Accumulates named result tables over a bench run and, when the bench was
/// invoked with a --json=<path> flag, writes them out via DumpTablesJson.
/// With no --json flag both Add and Finish are no-ops, so benches can record
/// unconditionally.
class JsonDump {
 public:
  explicit JsonDump(std::string path) : path_(std::move(path)) {}

  void Add(std::string name, const TablePrinter& table) {
    if (!path_.empty()) tables_.emplace_back(std::move(name), table);
  }

  /// Attaches a pre-serialized JSON value emitted verbatim under `name`
  /// after the tables -- how benches dump their obs::MetricsRegistry as one
  /// uniform "metrics" object.
  void AddRaw(std::string name, std::string raw_json) {
    if (!path_.empty()) {
      raw_objects_.emplace_back(std::move(name), std::move(raw_json));
    }
  }

  /// Writes the collected tables; returns false on I/O failure.
  bool Finish() const;

 private:
  std::string path_;
  std::vector<std::pair<std::string, TablePrinter>> tables_;
  std::vector<std::pair<std::string, std::string>> raw_objects_;
};

}  // namespace flashdb::harness

#endif  // FLASHDB_HARNESS_TABLE_PRINTER_H_
