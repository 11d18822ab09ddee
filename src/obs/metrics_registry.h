// Uniform metrics surface for the bench/JSON layer.
//
// MetricsRegistry is a time series of epochs over insertion-ordered, named
// scalar values. Subsystems do not hold registry pointers on their hot
// paths -- they keep their existing deterministic counter structs, and free
// *importer* functions (obs/metrics_import.h) project those structs into the
// registry at report time. That keeps recording zero-cost and incapable of
// perturbing any virtual-time column: the registry is written only after the
// measured work.
//
// SnapshotEpoch() freezes the current values as the next epoch; the epochs
// are what ToJson() emits. The benches' registry is the harness's, one per
// binary (harness::Metrics()): harness::Rig::Measure clears the values,
// calls the importers and snapshots one epoch per measured call, and every
// bench --json dump carries it as its "metrics" object.

#ifndef FLASHDB_OBS_METRICS_REGISTRY_H_
#define FLASHDB_OBS_METRICS_REGISTRY_H_

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace flashdb::obs {

/// See file comment.
class MetricsRegistry {
 public:
  /// Sets (registering on first use) metric `name` to `value`. Insertion
  /// order is preserved in every export.
  void Set(const std::string& name, double value);

  bool Has(const std::string& name) const;
  /// Value of `name`; 0 when unregistered.
  double Get(const std::string& name) const;

  /// Zeroes every value (names stay registered), so the next snapshot holds
  /// only what is set after this call.
  void ClearValues();

  /// Freezes the current values as epoch num_epochs(). Metrics registered
  /// after a snapshot are absent from the earlier epochs.
  void SnapshotEpoch();
  size_t num_epochs() const { return epochs_.size(); }
  /// Epoch `e`'s values by name.
  std::map<std::string, double> Epoch(size_t e) const;

  /// {"epochs":[{"epoch":0,"values":{name:value,...}},...]} -- values in
  /// registration order; integral values print without a decimal point.
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;

 private:
  std::vector<std::string> names_;                 ///< Registration order.
  std::unordered_map<std::string, size_t> index_;  ///< name -> position.
  std::vector<double> values_;                     ///< Parallel to names_.
  /// Each a copy of values_ at its snapshot.
  std::vector<std::vector<double>> epochs_;
};

}  // namespace flashdb::obs

#endif  // FLASHDB_OBS_METRICS_REGISTRY_H_
