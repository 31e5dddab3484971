// Simulated DPU memories: MRAM, WRAM and IRAM.
//
// Each DPU owns a 64 MB MRAM (reachable only through DMA, Eq. 3.4), a 64 KB
// WRAM (single-cycle access) and a 24 KB IRAM holding the program (thesis
// Figure 2.1, Table 2.1). MRAM is backed by sparse 64 KB chunks so that
// simulating thousands of DPUs does not reserve terabytes of host memory.
// All accesses are bounds-checked; violations throw OutOfBoundsError, the
// simulator's analogue of the memory faults one debugs on real DPUs. The
// memories take no locks: one thread at a time touches a DPU (Dpu::launch
// runs every tasklet on the thread that launched it).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace pimdnn::sim {

/// Which physical memory a symbol or access refers to.
enum class MemKind : std::uint8_t {
  Mram, ///< 64 MB external DRAM bank, DMA access only
  Wram, ///< 64 KB working RAM inside the DPU
  Iram, ///< 24 KB instruction RAM
};

/// Printable name ("MRAM"/"WRAM"/"IRAM").
const char* mem_kind_name(MemKind k);

/// Dense, bounds-checked byte array used for WRAM.
class Wram {
public:
  /// Creates a WRAM of `capacity` bytes, zero-initialized.
  explicit Wram(MemSize capacity);

  /// Capacity in bytes.
  MemSize capacity() const { return data_.size(); }

  /// Reads `size` bytes at `offset` into `dst`.
  void read(void* dst, MemSize offset, MemSize size) const;

  /// Writes `size` bytes from `src` at `offset`.
  void write(MemSize offset, const void* src, MemSize size);

  /// Direct pointer into WRAM for kernel-local spans; the range is
  /// bounds-checked once here, making subsequent accesses safe.
  std::uint8_t* span(MemSize offset, MemSize size);

  /// Const overload of `span`.
  const std::uint8_t* span(MemSize offset, MemSize size) const;

private:
  void check(MemSize offset, MemSize size) const;
  std::vector<std::uint8_t> data_;
};

/// Sparse, chunked, bounds-checked byte array used for MRAM.
class Mram {
public:
  /// Creates an MRAM of `capacity` bytes; storage materializes on write.
  explicit Mram(MemSize capacity);

  /// Capacity in bytes.
  MemSize capacity() const { return capacity_; }

  /// Reads `size` bytes at `offset` into `dst`; untouched chunks read 0.
  void read(void* dst, MemSize offset, MemSize size) const;

  /// Writes `size` bytes from `src` at `offset`.
  void write(MemSize offset, const void* src, MemSize size);

  /// Number of 64 KB chunks currently materialized (for tests/telemetry).
  std::size_t resident_chunks() const;

private:
  static constexpr MemSize kChunk = 64 * 1024;
  void check(MemSize offset, MemSize size) const;
  std::uint8_t* chunk_for_write(MemSize index);

  MemSize capacity_;
  std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
};

/// IRAM model: tracks the instruction footprint of the loaded program. The
/// simulator does not interpret an ISA, but programs declare their size so
/// the 24 KB limit is enforced like the real toolchain's link step.
class Iram {
public:
  /// Creates an IRAM of `capacity` bytes.
  explicit Iram(MemSize capacity) : capacity_(capacity) {}

  /// Capacity in bytes.
  MemSize capacity() const { return capacity_; }

  /// Loads a program footprint of `bytes`; throws CapacityError on overflow.
  void load_program(MemSize bytes, const std::string& name);

  /// Footprint of the currently loaded program (0 if none).
  MemSize used() const { return used_; }

private:
  MemSize capacity_;
  MemSize used_ = 0;
};

} // namespace pimdnn::sim
