// Status: lightweight error propagation in the style of RocksDB/Arrow.
//
// All fallible operations in flashdb return a Status (or Result<T>, see
// result.h). Exceptions are reserved for simulated catastrophic events
// (power loss injected by the fault injector) that deliberately unwind the
// whole operation stack.

#ifndef FLASHDB_COMMON_STATUS_H_
#define FLASHDB_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace flashdb {

/// Error taxonomy for the flash storage stack.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,   ///< Caller passed an out-of-range or malformed value.
  kNotFound = 2,          ///< Logical page / record / key does not exist.
  kCorruption = 3,        ///< On-flash data failed validation (CRC, structure).
  kIOError = 4,           ///< Emulated device rejected the operation.
  kNoSpace = 5,           ///< Flash is full and garbage collection cannot help.
  kNotSupported = 6,      ///< Operation not implemented by this method.
  kFlashConstraint = 7,   ///< NAND programming rule violated (0->1 without
                          ///< erase, non-sequential program, partial-program
                          ///< budget).
  kBusy = 8,              ///< Resource (buffer frame) pinned / unavailable.
  kAborted = 9,           ///< Operation abandoned on purpose (a crash cut).
};

/// Returns a stable human-readable name for a status code ("Corruption", ...).
std::string_view StatusCodeName(StatusCode code);

/// Value-type status object. Cheap to copy when ok (no allocation).
class Status {
 public:
  /// Constructs an ok status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NoSpace(std::string msg) {
    return Status(StatusCode::kNoSpace, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status FlashConstraint(std::string msg) {
    return Status(StatusCode::kFlashConstraint, std::move(msg));
  }
  static Status Busy(std::string msg) {
    return Status(StatusCode::kBusy, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsNoSpace() const { return code_ == StatusCode::kNoSpace; }
  bool IsFlashConstraint() const {
    return code_ == StatusCode::kFlashConstraint;
  }
  bool IsBusy() const { return code_ == StatusCode::kBusy; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  StatusCode code_;
  std::string msg_;
};

/// Aborts with the printf-style message (and a newline) on stderr unless
/// `ok`: the constructor contracts that must hold in every build, where an
/// assert would vanish in Release.
void CheckOrAbort(bool ok, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Propagates a non-ok status to the caller. Usable in functions returning
/// Status or Result<T> (Result is constructible from Status).
#define FLASHDB_RETURN_IF_ERROR(expr)            \
  do {                                           \
    ::flashdb::Status _st = (expr);              \
    if (!_st.ok()) return _st;                   \
  } while (0)

}  // namespace flashdb

#endif  // FLASHDB_COMMON_STATUS_H_
