// Error types and lightweight contract checking.
#pragma once

#include <stdexcept>
#include <string>

namespace masc {

/// Raised for malformed machine configurations.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Raised by the decoder for illegal or unimplemented encodings.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Raised by the assembler for source-level errors (carries location text).
class AssemblyError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Raised when simulated software performs an illegal action
/// (out-of-range memory access, spawning beyond the thread table, ...).
class SimulationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Contract check that survives NDEBUG builds; use for conditions that
/// guard simulator integrity rather than hot-path invariants.
inline void expect(bool cond, const std::string& what) {
  if (!cond) throw SimulationError(what);
}

/// Hot-path overload: a string literal binds here instead of
/// materializing (and freeing) a std::string temporary on every check
/// that passes, so it only pays on throw.
inline void expect(bool cond, const char* what) {
  if (!cond) throw SimulationError(what);
}

}  // namespace masc
