#ifndef HTAPEX_COMMON_STATUS_H_
#define HTAPEX_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace htapex {

/// Error categories used across the library. Mirrors the Arrow/RocksDB
/// convention of returning a Status instead of throwing exceptions across
/// public API boundaries.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kParseError,
  kBindError,
  kPlanError,
  kExecutionError,
  kIoError,
  kInternal,
  kUnavailable,        // dependency down / breaker open / shutting down
  kDeadlineExceeded,   // per-request budget exhausted
};

/// Returns a short human-readable name for a status code, e.g. "ParseError".
const char* StatusCodeName(StatusCode code);

/// A success-or-error value. Cheap to copy in the success case (no
/// allocation); carries a message in the error case.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status PlanError(std::string msg) {
    return Status(StatusCode::kPlanError, std::move(msg));
  }
  static Status ExecutionError(std::string msg) {
    return Status(StatusCode::kExecutionError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Propagates a non-OK Status to the caller.
#define HTAPEX_RETURN_IF_ERROR(expr)                 \
  do {                                               \
    ::htapex::Status _st = (expr);                   \
    if (!_st.ok()) return _st;                       \
  } while (false)

}  // namespace htapex

#endif  // HTAPEX_COMMON_STATUS_H_
