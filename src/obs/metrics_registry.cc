#include "obs/metrics_registry.h"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace flashdb::obs {

const char* MetricsRegistry::KindName(Kind k) {
  switch (k) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHist: return "hist";
  }
  return "unknown";
}

MetricsRegistry::Metric* MetricsRegistry::Find(const std::string& name) {
  auto it = map_.find(name);
  return it == map_.end() ? nullptr : &it->second;
}

const MetricsRegistry::Metric* MetricsRegistry::Find(
    const std::string& name) const {
  auto it = map_.find(name);
  return it == map_.end() ? nullptr : &it->second;
}

void MetricsRegistry::Set(const std::string& name, double value, Kind kind) {
  Metric* m = Find(name);
  if (m == nullptr) {
    names_.push_back(name);
    m = &map_[name];
    m->kind = kind;
  }
  m->value = value;
}

void MetricsRegistry::Inc(const std::string& name, double delta) {
  Metric* m = Find(name);
  if (m == nullptr) {
    names_.push_back(name);
    m = &map_[name];
    m->kind = Kind::kCounter;
  }
  m->value += delta;
}

bool MetricsRegistry::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

double MetricsRegistry::Get(const std::string& name) const {
  const Metric* m = Find(name);
  return m == nullptr ? 0.0 : m->value;
}

MetricsRegistry::Kind MetricsRegistry::kind(const std::string& name) const {
  const Metric* m = Find(name);
  return m == nullptr ? Kind::kGauge : m->kind;
}

void MetricsRegistry::SnapshotEpoch(uint64_t id) {
  Epoch e;
  e.id = id;
  e.values.reserve(names_.size());
  for (const std::string& n : names_) e.values.push_back(Get(n));
  epochs_.push_back(std::move(e));
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
  os << "{\"values\":{";
  for (size_t i = 0; i < names_.size(); ++i) {
    if (i != 0) os << ',';
    EmitString(os, names_[i]);
    os << ':';
    EmitNumber(os, Get(names_[i]));
  }
  os << "},\"kinds\":{";
  for (size_t i = 0; i < names_.size(); ++i) {
    if (i != 0) os << ',';
    EmitString(os, names_[i]);
    os << ":\"" << KindName(kind(names_[i])) << '"';
  }
  os << "},\"epochs\":[";
  for (size_t e = 0; e < epochs_.size(); ++e) {
    if (e != 0) os << ',';
    os << "{\"epoch\":" << epochs_[e].id << ",\"values\":{";
    for (size_t i = 0; i < epochs_[e].values.size(); ++i) {
      if (i != 0) os << ',';
      EmitString(os, names_[i]);
      os << ':';
      EmitNumber(os, epochs_[e].values[i]);
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
