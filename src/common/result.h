// Result<T>: a Status-or-value, in the style of arrow::Result.

#ifndef FLASHDB_COMMON_RESULT_H_
#define FLASHDB_COMMON_RESULT_H_

#include <cassert>
#include <utility>
#include <variant>

#include "common/status.h"

namespace flashdb {

/// Holds either a value of type T or a non-ok Status explaining why the value
/// could not be produced.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(T value) : v_(std::move(value)) {}

  /// Implicit construction from an error status. Must not be OK.
  Result(Status status) : v_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(v_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(v_); }

  /// Returns the error status, or OK when a value is held.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(v_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(v_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(v_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or a fallback when in error state.
  T value_or(T fallback) const {
    return ok() ? value() : std::move(fallback);
  }

 private:
  std::variant<Status, T> v_;
};

/// Assigns the value of a Result expression to `lhs`, or returns its error.
#define FLASHDB_ASSIGN_OR_RETURN(lhs, expr)              \
  auto FLASHDB_CONCAT_(_res_, __LINE__) = (expr);        \
  if (!FLASHDB_CONCAT_(_res_, __LINE__).ok())            \
    return FLASHDB_CONCAT_(_res_, __LINE__).status();    \
  lhs = std::move(FLASHDB_CONCAT_(_res_, __LINE__)).value()

#define FLASHDB_CONCAT_(a, b) FLASHDB_CONCAT_IMPL_(a, b)
#define FLASHDB_CONCAT_IMPL_(a, b) a##b

}  // namespace flashdb

#endif  // FLASHDB_COMMON_RESULT_H_
