#include "common/status.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace flashdb {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kNoSpace:
      return "NoSpace";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kFlashConstraint:
      return "FlashConstraint";
    case StatusCode::kBusy:
      return "Busy";
    case StatusCode::kAborted:
      return "Aborted";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeName(code_));
  if (!msg_.empty()) {
    out += ": ";
    out += msg_;
  }
  return out;
}

void CheckOrAbort(bool ok, const char* fmt, ...) {
  if (ok) return;
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

}  // namespace flashdb
