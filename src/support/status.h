#ifndef PGIVM_SUPPORT_STATUS_H_
#define PGIVM_SUPPORT_STATUS_H_

#include <cassert>
#include <ostream>
#include <string>
#include <optional>
#include <utility>

namespace pgivm {

/// Canonical error space for the library. The project does not use C++
/// exceptions; every fallible operation reports through Status / Result<T>.
enum class StatusCode {
  kOk,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kOutOfRange,
  kUnimplemented,
  kInternal,
};

/// Returns a stable, human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// Value-semantic error carrier. An OK status has no message.
///
/// Example:
///   Status s = graph.RemoveVertex(id);
///   if (!s.ok()) { ... s.message() ... }
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status AlreadyExists(std::string message) {
    return Status(StatusCode::kAlreadyExists, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  static Status Unimplemented(std::string message) {
    return Status(StatusCode::kUnimplemented, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Either a value of type T or a non-OK Status. Mirrors absl::StatusOr.
///
/// Accessing value() on an error Result is a programming error and asserts.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or an error is intentional: it lets
  /// functions `return value;` or `return Status::...;` uniformly.
  Result(T value) : value_(std::move(value)) {}         // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    assert(!status_.ok() && "Result<T> must not be built from an OK status");
  }

  bool ok() const { return value_.has_value(); }

  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  // OK exactly when value_ holds a value. Not a std::variant<Status, T>:
  // GCC 12 reports -Wmaybe-uninitialized through that variant's destructor
  // in optimized builds.
  Status status_;
  std::optional<T> value_;
};

}  // namespace pgivm

/// Propagates a non-OK Status to the caller.
#define PGIVM_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::pgivm::Status pgivm_status__ = (expr);   \
    if (!pgivm_status__.ok()) return pgivm_status__; \
  } while (false)

/// Evaluates `rexpr` (a Result<T>), propagating errors; on success binds the
/// value to `lhs`.
#define PGIVM_ASSIGN_OR_RETURN(lhs, rexpr)                    \
  PGIVM_ASSIGN_OR_RETURN_IMPL_(                               \
      PGIVM_STATUS_CONCAT_(pgivm_result__, __LINE__), lhs, rexpr)

#define PGIVM_STATUS_CONCAT_INNER_(x, y) x##y
#define PGIVM_STATUS_CONCAT_(x, y) PGIVM_STATUS_CONCAT_INNER_(x, y)
#define PGIVM_ASSIGN_OR_RETURN_IMPL_(var, lhs, rexpr) \
  auto var = (rexpr);                                 \
  if (!var.ok()) return var.status();                 \
  lhs = std::move(var).value()

#endif  // PGIVM_SUPPORT_STATUS_H_
