// Minimal --key=value flag parsing for bench and example binaries.

#ifndef FLASHDB_HARNESS_CLI_H_
#define FLASHDB_HARNESS_CLI_H_

#include <cstdint>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace flashdb::harness {

/// Parsed command line: --key=value and bare --key (value "1") flags. Every
/// Has and Get* call records its key as read, so a binary that has read all
/// its flags can reject the ones it never asked for (AllRead). GetInt and
/// GetDouble parse the whole value; one that is not wholly a number, or
/// that overflows, reads as the default and AllRead rejects it.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key, std::string def) const;
  int64_t GetInt(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;

  /// The non-flag positional arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Called once every flag has been read, before the first rig: false,
  /// after printing them to `err`, when a given flag was never read, a
  /// positional argument was given (no binary takes one) or a numeric
  /// flag's value is malformed. A misspelt flag would otherwise run the
  /// defaults; the binary exits 2.
  bool AllRead(std::ostream& err = std::cerr) const;

 private:
  /// The value of `key` (recorded as read), or null when it was not given.
  const std::string* Find(const std::string& key) const;
  /// The whole value of `key` as a T; `def` when it was not given or is
  /// malformed, which is recorded for AllRead.
  template <typename T>
  T GetNumber(const std::string& key, T def) const;

  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
  /// Flag -> why its value is not a number.
  mutable std::map<std::string, std::string> malformed_;
};

}  // namespace flashdb::harness

#endif  // FLASHDB_HARNESS_CLI_H_
