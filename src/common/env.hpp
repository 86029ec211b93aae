// Checked environment-variable parsing.
//
// Several knobs are overridable from the environment so a CI matrix can
// vary them without editing tests (QCNT_FAULT_SEED, QCNT_TCP_PORT_BASE,
// QCNT_E20_KEYS). They all follow one contract, implemented once
// here: the variable must hold a complete base-10 unsigned integer within
// the caller's [lo, hi] range, or it is ignored and the built-in default
// applies. Ignoring (rather than aborting on) a malformed value is
// deliberate — an env var set for one binary must never take down another
// binary that happens to inherit the environment.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>

namespace qcnt::common {

/// Parse `name` as an unsigned integer in [lo, hi]. Returns nullopt when
/// the variable is unset, empty, malformed (sign, trailing junk, overflow),
/// or out of range.
inline std::optional<std::uint64_t> EnvU64(const char* name, std::uint64_t lo,
                                           std::uint64_t hi) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return std::nullopt;
  // Reject signs and whitespace up front: strtoull would accept "-1" by
  // wrapping it to 2^64-1, which a range check against hi may then pass.
  if (*env == '-' || *env == '+' || *env == ' ') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE) return std::nullopt;
  if (v < lo || v > hi) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

}  // namespace qcnt::common
