// Assertion macros for internal invariants.
//
// QCNT_CHECK is always on (tests and benches rely on it); QCNT_DCHECK
// compiles out in NDEBUG builds. Violations throw so that test harnesses
// can report the failing invariant instead of aborting the process.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace qcnt {

/// Thrown when an internal invariant is violated.
class InvariantViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
[[noreturn]] inline void CheckFailed(const char* expr, const char* file,
                                     int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant violated: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvariantViolation(os.str());
}
}  // namespace detail

}  // namespace qcnt

#define QCNT_CHECK(expr)                                              \
  do {                                                                \
    if (!(expr))                                                      \
      ::qcnt::detail::CheckFailed(#expr, __FILE__, __LINE__, "");     \
  } while (0)

#define QCNT_CHECK_MSG(expr, msg)                                     \
  do {                                                                \
    if (!(expr))                                                      \
      ::qcnt::detail::CheckFailed(#expr, __FILE__, __LINE__, (msg));  \
  } while (0)

/// Unconditional failure, for the end of a function that every valid
/// input leaves earlier. Unlike QCNT_CHECK_MSG(false, …), the compiler
/// sees the [[noreturn]] call, so the function needs no dummy return.
#define QCNT_FAIL(msg) \
  ::qcnt::detail::CheckFailed("false", __FILE__, __LINE__, (msg))

#ifdef NDEBUG
#define QCNT_DCHECK(expr) ((void)0)
#else
#define QCNT_DCHECK(expr) QCNT_CHECK(expr)
#endif
