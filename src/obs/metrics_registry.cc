#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace flashdb::obs {

void MetricsRegistry::Set(const std::string& name, double value) {
  const auto [it, added] = index_.try_emplace(name, names_.size());
  if (added) {
    names_.push_back(name);
    values_.push_back(0);
  }
  values_[it->second] = value;
}

bool MetricsRegistry::Has(const std::string& name) const {
  return index_.contains(name);
}

double MetricsRegistry::Get(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? 0.0 : values_[it->second];
}

void MetricsRegistry::ClearValues() {
  std::fill(values_.begin(), values_.end(), 0.0);
}

void MetricsRegistry::SnapshotEpoch() { epochs_.push_back(values_); }

std::map<std::string, double> MetricsRegistry::Epoch(size_t e) const {
  std::map<std::string, double> out;
  for (size_t i = 0; i < epochs_[e].size(); ++i) {
    out[names_[i]] = epochs_[e][i];
  }
  return out;
}

namespace {

/// JSON number: integral values (the common case -- counters, clocks) print
/// exactly, without a decimal point; the rest round-trip through %.9g.
void EmitNumber(std::ostream& os, double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.007e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    os << buf;
  } else if (std::isfinite(v)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    os << buf;
  } else {
    os << "null";  // JSON has no NaN/Inf.
  }
}

void EmitString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void MetricsRegistry::WriteJson(std::ostream& os) const {
  os << "{\"epochs\":[";
  for (size_t e = 0; e < epochs_.size(); ++e) {
    if (e != 0) os << ',';
    os << "{\"epoch\":" << e << ",\"values\":{";
    for (size_t i = 0; i < epochs_[e].size(); ++i) {
      if (i != 0) os << ',';
      EmitString(os, names_[i]);
      os << ':';
      EmitNumber(os, epochs_[e][i]);
    }
    os << "}}";
  }
  os << "]}";
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream oss;
  WriteJson(oss);
  return oss.str();
}

}  // namespace flashdb::obs
