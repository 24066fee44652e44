// Error handling: BLAS-style argument checking plus exceptions for
// conditions (workspace exhaustion, convergence failure) that have no
// BLAS-style INFO convention.
#pragma once

#include <stdexcept>
#include <string>

namespace strassen {

/// Base class of all exceptions thrown by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a workspace arena cannot satisfy an allocation. The library
/// pre-sizes arenas exactly, so seeing this indicates either a caller-supplied
/// arena that is too small or an internal sizing bug.
class WorkspaceError : public Error {
 public:
  explicit WorkspaceError(const std::string& what) : Error(what) {}
};

/// Thrown by iterative algorithms (e.g. the ISDA eigensolver) when a
/// convergence criterion is not met within the configured iteration budget.
class ConvergenceError : public Error {
 public:
  explicit ConvergenceError(const std::string& what) : Error(what) {}
};

/// Thrown when a thread-pool task fails to start or run (today only via
/// fault injection; the slot exists so parallel failures carry a type the
/// failure policy and the C-ABI info mapping can recognise).
class TaskError : public Error {
 public:
  explicit TaskError(const std::string& what) : Error(what) {}
};

/// Thrown by the serving front-end (src/serve) when a request is refused at
/// admission: the bounded queue is full under the `reject` policy, or the
/// request's exact predicted workspace exceeds the memory budget and could
/// never be satisfied by waiting. C has not been touched.
class AdmissionError : public Error {
 public:
  explicit AdmissionError(const std::string& what) : Error(what) {}
};

/// Thrown by the serving front-end when a request's deadline passed while
/// it was still queued (it never started computing, so C is untouched).
class DeadlineError : public Error {
 public:
  explicit DeadlineError(const std::string& what) : Error(what) {}
};

/// Thrown when a request was canceled cooperatively. The cancellation token
/// is honored only before the request starts running (queued, or waiting
/// for its workspace lease), so C is untouched; a running request
/// completes instead.
class CanceledError : public Error {
 public:
  explicit CanceledError(const std::string& what) : Error(what) {}
};

}  // namespace strassen
