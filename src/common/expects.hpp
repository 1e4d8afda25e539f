#ifndef PTC_COMMON_EXPECTS_HPP
#define PTC_COMMON_EXPECTS_HPP

#include <stdexcept>
#include <string>

/// Lightweight precondition/postcondition helpers in the spirit of the
/// C++ Core Guidelines Expects()/Ensures().  Violations throw, so callers
/// (and tests) can observe contract failures deterministically.
///
/// The `const char*` overloads are what string literals bind to: they build
/// the message only when the check fails, so a passing check on a hot path
/// costs one branch and no heap allocation.  The `std::string` overloads
/// serve callers that compose value-carrying messages.
namespace ptc {

/// Throws std::invalid_argument when a precondition does not hold.
inline void expects(bool condition, const char* what) {
  if (!condition) {
    throw std::invalid_argument(std::string("precondition violated: ") + what);
  }
}

inline void expects(bool condition, const std::string& what) {
  if (!condition) throw std::invalid_argument("precondition violated: " + what);
}

/// Throws std::logic_error when a postcondition/invariant does not hold.
inline void ensures(bool condition, const char* what) {
  if (!condition) {
    throw std::logic_error(std::string("postcondition violated: ") + what);
  }
}

inline void ensures(bool condition, const std::string& what) {
  if (!condition) throw std::logic_error("postcondition violated: " + what);
}

}  // namespace ptc

#endif  // PTC_COMMON_EXPECTS_HPP
