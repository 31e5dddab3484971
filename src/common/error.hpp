// Exception hierarchy for pimdnn.
//
// All fatal misuse of the simulated hardware (out-of-bounds access, alignment
// violations, capacity overruns) throws a subclass of `Error` so that tests
// can assert on the precise failure class, mirroring the crashes/undefined
// behaviour one would get on the physical UPMEM system.
#pragma once

#include <stdexcept>
#include <string>

namespace pimdnn {

/// Root of the pimdnn exception hierarchy.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A simulated memory access fell outside the owning region.
class OutOfBoundsError : public Error {
public:
  using Error::Error;
};

/// Host<->DPU transfer violated UPMEM's 8-byte alignment/divisibility rule
/// (thesis §3.2: "memory being orchestrated is aligned on 8 bytes and
/// divisible by 8 bytes").
class AlignmentError : public Error {
public:
  using Error::Error;
};

/// A buffer did not fit in MRAM/WRAM/IRAM, or a DpuSet allocation exceeded
/// the number of DPUs in the system.
class CapacityError : public Error {
public:
  using Error::Error;
};

/// A host-side API was used out of order (e.g. push_xfer without prepare).
class UsageError : public Error {
public:
  using Error::Error;
};

/// A named DPU symbol was not found or had the wrong size.
class SymbolError : public Error {
public:
  using Error::Error;
};

/// Configuration rejected by a model or network builder.
class ConfigError : public Error {
public:
  using Error::Error;
};

/// Contract check used across the libraries: throws UsageError on failure.
/// Inline, with a literal overload, so a passing check costs one branch
/// and builds no message.
inline void require(bool cond, const char* msg) {
  if (!cond) {
    throw UsageError(msg);
  }
}

inline void require(bool cond, const std::string& msg) {
  if (!cond) {
    throw UsageError(msg);
  }
}

} // namespace pimdnn
