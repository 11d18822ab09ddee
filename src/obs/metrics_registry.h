// Uniform metrics surface for the bench/JSON layer.
//
// MetricsRegistry is an insertion-ordered map of named, typed scalar metrics:
// counters (monotonic; Inc), gauges (point-in-time; Set), and histogram
// summary entries (percentile/count fields imported from a
// workload::LatencyHistogram via obs::ImportHistogram). Subsystems do not
// hold registry pointers on their hot paths -- they keep their existing
// deterministic counter structs, and free *importer* functions
// (obs/metrics_import.h) project those structs into the registry at report
// time. That keeps recording zero-cost and incapable of perturbing any
// virtual-time column: the registry is written only after the measured work.
//
// SnapshotEpoch() freezes the current values under an epoch id, producing an
// epoch-granular time series (write-amp, erase deltas, GC pressure, queue
// depth, ...) that ToJson() emits alongside the final values -- the single
// uniform "metrics" object every bench --json dump carries.

#ifndef FLASHDB_OBS_METRICS_REGISTRY_H_
#define FLASHDB_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

namespace flashdb::obs {

/// See file comment.
class MetricsRegistry {
 public:
  enum class Kind : uint8_t {
    kCounter,  ///< Monotonic count (ops, erases, events).
    kGauge,    ///< Point-in-time value (queue depth, hit rate, clock).
    kHist,     ///< Summary field of a histogram (count/mean/percentiles).
  };
  static const char* KindName(Kind k);

  /// Sets (registering on first use) metric `name` to `value`. Insertion
  /// order is preserved in every export.
  void Set(const std::string& name, double value, Kind kind = Kind::kGauge);

  /// Adds `delta` to counter `name` (0 when unregistered).
  void Inc(const std::string& name, double delta = 1.0);

  bool Has(const std::string& name) const;
  /// Value of `name`; 0 when unregistered.
  double Get(const std::string& name) const;
  Kind kind(const std::string& name) const;

  size_t size() const { return names_.size(); }

  /// Freezes the current values as the time-series sample for epoch `id`.
  /// Metrics registered after a snapshot report 0 for the earlier epochs.
  void SnapshotEpoch(uint64_t id);
  size_t num_epochs() const { return epochs_.size(); }

  /// {"values":{name:value,...},"kinds":{name:"counter"|...},
  ///  "epochs":[{"epoch":id,"values":{...}},...]} -- values in registration
  /// order; integral values print without a decimal point.
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;

 private:
  struct Metric {
    double value = 0;
    Kind kind = Kind::kGauge;
  };
  struct Epoch {
    uint64_t id = 0;
    std::vector<double> values;  ///< Parallel to names_ at snapshot time.
  };

  Metric* Find(const std::string& name);
  const Metric* Find(const std::string& name) const;

  std::vector<std::string> names_;               ///< Registration order.
  std::unordered_map<std::string, Metric> map_;  ///< name -> metric.
  std::vector<Epoch> epochs_;
};

}  // namespace flashdb::obs

#endif  // FLASHDB_OBS_METRICS_REGISTRY_H_
