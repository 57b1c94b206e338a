// A minimal Status type for recoverable API errors (invalid user arguments,
// I/O failures). Modeled after the Status idiom used by Arrow / RocksDB.
#ifndef DWMAXERR_COMMON_STATUS_H_
#define DWMAXERR_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace dwm {

// Error categories surfaced by the public API.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kIOError = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kAborted = 5,
  kInternal = 6,  // a library invariant failed; a bug, not bad input
};

// Value-semantic status: kOk or (code, message). The class-level
// [[nodiscard]] makes every call that returns a Status ill-formed to
// ignore (with -Werror in CI): callers must check it, DWM_RETURN_NOT_OK
// it, or consume it explicitly.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return CodeName(code_) + std::string(": ") + message_;
  }

 private:
  static const char* CodeName(StatusCode code) {
    switch (code) {
      case StatusCode::kOk:
        return "OK";
      case StatusCode::kInvalidArgument:
        return "InvalidArgument";
      case StatusCode::kIOError:
        return "IOError";
      case StatusCode::kOutOfRange:
        return "OutOfRange";
      case StatusCode::kFailedPrecondition:
        return "FailedPrecondition";
      case StatusCode::kAborted:
        return "Aborted";
      case StatusCode::kInternal:
        return "Internal";
    }
    return "Unknown";
  }

  StatusCode code_;
  std::string message_;
};

}  // namespace dwm

#define DWM_RETURN_NOT_OK(expr)             \
  do {                                      \
    ::dwm::Status _st = (expr);             \
    if (!_st.ok()) return _st;              \
  } while (0)

#endif  // DWMAXERR_COMMON_STATUS_H_
