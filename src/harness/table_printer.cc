#include "harness/table_printer.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "harness/experiment.h"
#include "obs/metrics_registry.h"

namespace flashdb::harness {

std::string TablePrinter::Num(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> width(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      os << "  " << cell << std::string(width[c] - cell.size(), ' ');
    }
    os << "\n";
  };
  print_row(header_);
  size_t total = 2 * width.size();
  for (size_t w : width) total += w;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
}

namespace {
void EmitJsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}
}  // namespace

void TablePrinter::WriteJson(std::ostream& os) const {
  os << "[";
  for (size_t r = 0; r < rows_.size(); ++r) {
    os << (r ? ",\n  " : "\n  ") << "{";
    for (size_t c = 0; c < header_.size(); ++c) {
      if (c) os << ", ";
      EmitJsonString(os, header_[c]);
      os << ": ";
      EmitJsonString(os, c < rows_[r].size() ? rows_[r][c] : "");
    }
    os << "}";
  }
  os << "\n]";
}

bool JsonDump::Finish() const {
  if (path_.empty()) return true;
  std::ofstream out(path_);
  if (!out) {
    std::cerr << "cannot write --json file: " << path_ << "\n";
    return false;
  }
  out << "{";
  size_t emitted = 0;
  for (const auto& [name, table] : tables_) {
    out << (emitted++ ? ",\n" : "\n");
    EmitJsonString(out, name);
    out << ": ";
    table.WriteJson(out);
  }
  if (Metrics().num_epochs() != 0) {
    out << (emitted != 0 ? ",\n" : "\n") << "\"metrics\": ";
    Metrics().WriteJson(out);
  }
  out << "\n}\n";
  return true;
}

}  // namespace flashdb::harness
