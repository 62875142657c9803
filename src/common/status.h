// Status / Result<T>: exception-free error propagation for fallible
// operations that are not programming errors (parse failures, invalid query
// specifications). Programming errors use RUMOR_CHECK instead.
#ifndef RUMOR_COMMON_STATUS_H_
#define RUMOR_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "common/logging.h"

namespace rumor {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
};

// Returns a short human-readable name for `code` ("OK", "InvalidArgument"...).
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kAlreadyExists: return "AlreadyExists";
    case StatusCode::kFailedPrecondition: return "FailedPrecondition";
    case StatusCode::kUnimplemented: return "Unimplemented";
    case StatusCode::kInternal: return "Internal";
  }
  return "Unknown";
}

// Value-semantic success/error indicator with an error message.
class Status {
 public:
  // Constructs an OK status.
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
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Returns "OK" or "<CodeName>: <message>".
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Result<T> holds either a T or a non-OK Status.
template <typename T>
class Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : data_(std::move(status)) {  // NOLINT
    RUMOR_CHECK(!std::get<Status>(data_).ok())
        << "Result constructed from OK status without a value";
  }

  bool ok() const { return std::holds_alternative<T>(data_); }

  const T& value() const& {
    RUMOR_CHECK(ok()) << status().ToString();
    return std::get<T>(data_);
  }
  T& value() & {
    RUMOR_CHECK(ok()) << status().ToString();
    return std::get<T>(data_);
  }
  T&& value() && {
    RUMOR_CHECK(ok()) << status().ToString();
    return std::get<T>(std::move(data_));
  }

  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(data_);
  }

 private:
  std::variant<T, Status> data_;
};

}  // namespace rumor

// Propagates a non-OK status to the caller.
#define RUMOR_RETURN_IF_ERROR(expr)          \
  do {                                       \
    ::rumor::Status _st = (expr);            \
    if (!_st.ok()) return _st;               \
  } while (0)

#endif  // RUMOR_COMMON_STATUS_H_
