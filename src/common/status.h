#ifndef PRISTI_COMMON_STATUS_H_
#define PRISTI_COMMON_STATUS_H_

// Typed error reporting shared across layers.
//
// Status began life inside src/serialize/ (checkpoint loading must fail
// loudly and *safely* on every kind of file damage — truncation, bit
// corruption, version skew, shape mismatch — so the load path never
// CHECK-aborts and never touches uninitialized memory). It lives in
// common/ because interfaces below serialize in the layering DAG mention
// it: nn::Module::SaveCheckpoint/LoadCheckpoint return a Status without
// the nn layer depending on serialize. Header-only; the ErrorCode values
// are asserted on by the fault-injection tests in tests/serialize_test.cc.

#include <string>
#include <utility>

namespace pristi {

enum class ErrorCode {
  kOk = 0,
  kIoError,            // open/read/write/rename failed at the OS level
  kBadMagic,           // file does not start with the checkpoint magic
  kVersionSkew,        // format version differs from kFormatVersion
  kTruncated,          // file ends mid-record / before the end record
  kBadRecord,          // structurally invalid record (bad length, garbage)
  kChecksumMismatch,   // per-record CRC32 does not match the payload
  kMissingRecord,      // a record the loader requires is absent
  kTypeMismatch,       // record exists but holds a different payload type
  kShapeMismatch,      // tensor record shape differs from the destination
  kCountMismatch,      // parameter/moment count differs from the target
  kConfigMismatch,     // stored config (schedule, optimizer) disagrees
  kNonFinite,          // NaN or Inf where a finite value is required

  // Serving-layer codes (src/serve/). kQueueFull is the only RETRYABLE
  // code: the request was never admitted and an identical resubmission
  // after backoff is expected to succeed. kCancelled / kInvalidRequest are
  // terminal for the request that received them.
  kQueueFull,          // admission queue at capacity; back off and retry
  kCancelled,          // request dropped by shutdown / queue close
  kInvalidRequest,     // request malformed (e.g. window shape mismatch)
};

inline const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kIoError: return "io-error";
    case ErrorCode::kBadMagic: return "bad-magic";
    case ErrorCode::kVersionSkew: return "version-skew";
    case ErrorCode::kTruncated: return "truncated";
    case ErrorCode::kBadRecord: return "bad-record";
    case ErrorCode::kChecksumMismatch: return "checksum-mismatch";
    case ErrorCode::kMissingRecord: return "missing-record";
    case ErrorCode::kTypeMismatch: return "type-mismatch";
    case ErrorCode::kShapeMismatch: return "shape-mismatch";
    case ErrorCode::kCountMismatch: return "count-mismatch";
    case ErrorCode::kConfigMismatch: return "config-mismatch";
    case ErrorCode::kNonFinite: return "non-finite";
    case ErrorCode::kQueueFull: return "queue-full";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kInvalidRequest: return "invalid-request";
  }
  return "unknown";
}

class Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status Error(ErrorCode code, std::string message) {
    return Status(code, std::move(message));
  }

  bool ok() const { return code_ == ErrorCode::kOk; }
  // True when the failed operation was never started and may simply be
  // retried (today: only a queue-full admission rejection).
  bool retryable() const { return code_ == ErrorCode::kQueueFull; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "checksum-mismatch: record 'model.w' ..." for logs and test output.
  std::string ToString() const {
    if (ok()) return "ok";
    return std::string(ErrorCodeName(code_)) + ": " + message_;
  }

 private:
  ErrorCode code_;
  std::string message_;
};

}  // namespace pristi

#endif  // PRISTI_COMMON_STATUS_H_
