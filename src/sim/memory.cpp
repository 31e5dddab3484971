#include "sim/memory.hpp"

#include <algorithm>

namespace pimdnn::sim {

const char* mem_kind_name(MemKind k) {
  switch (k) {
    case MemKind::Mram: return "MRAM";
    case MemKind::Wram: return "WRAM";
    case MemKind::Iram: return "IRAM";
  }
  return "?";
}

Wram::Wram(MemSize capacity) : data_(capacity, 0) {}

void Wram::check(MemSize offset, MemSize size) const {
  if (offset + size > data_.size() || offset + size < offset) {
    throw OutOfBoundsError("WRAM access [" + std::to_string(offset) + ", +" +
                           std::to_string(size) + ") exceeds capacity " +
                           std::to_string(data_.size()));
  }
}

void Wram::read(void* dst, MemSize offset, MemSize size) const {
  check(offset, size);
  std::memcpy(dst, data_.data() + offset, size);
}

void Wram::write(MemSize offset, const void* src, MemSize size) {
  check(offset, size);
  std::memcpy(data_.data() + offset, src, size);
}

std::uint8_t* Wram::span(MemSize offset, MemSize size) {
  check(offset, size);
  return data_.data() + offset;
}

const std::uint8_t* Wram::span(MemSize offset, MemSize size) const {
  check(offset, size);
  return data_.data() + offset;
}

Mram::Mram(MemSize capacity) : capacity_(capacity) {
  chunks_.resize((capacity + kChunk - 1) / kChunk);
}

void Mram::check(MemSize offset, MemSize size) const {
  if (offset + size > capacity_ || offset + size < offset) {
    throw OutOfBoundsError("MRAM access [" + std::to_string(offset) + ", +" +
                           std::to_string(size) + ") exceeds capacity " +
                           std::to_string(capacity_));
  }
}

std::uint8_t* Mram::chunk_for_write(MemSize index) {
  auto& c = chunks_[index];
  if (!c) {
    c = std::make_unique<std::uint8_t[]>(kChunk);
    std::fill_n(c.get(), kChunk, 0);
  }
  return c.get();
}

void Mram::read(void* dst, MemSize offset, MemSize size) const {
  check(offset, size);
  auto* out = static_cast<std::uint8_t*>(dst);
  while (size > 0) {
    const MemSize ci = offset / kChunk;
    const MemSize co = offset % kChunk;
    const MemSize n = std::min<MemSize>(size, kChunk - co);
    const std::uint8_t* chunk = chunks_[ci].get();
    if (chunk != nullptr) {
      std::memcpy(out, chunk + co, n);
    } else {
      std::memset(out, 0, n);
    }
    out += n;
    offset += n;
    size -= n;
  }
}

void Mram::write(MemSize offset, const void* src, MemSize size) {
  check(offset, size);
  const auto* in = static_cast<const std::uint8_t*>(src);
  while (size > 0) {
    const MemSize ci = offset / kChunk;
    const MemSize co = offset % kChunk;
    const MemSize n = std::min<MemSize>(size, kChunk - co);
    std::memcpy(chunk_for_write(ci) + co, in, n);
    in += n;
    offset += n;
    size -= n;
  }
}

std::size_t Mram::resident_chunks() const {
  std::size_t n = 0;
  for (const auto& c : chunks_) {
    if (c) ++n;
  }
  return n;
}

void Iram::load_program(MemSize bytes, const std::string& name) {
  if (bytes > capacity_) {
    throw CapacityError("program '" + name + "' (" + std::to_string(bytes) +
                        " B) exceeds IRAM capacity " +
                        std::to_string(capacity_) + " B");
  }
  used_ = bytes;
}

} // namespace pimdnn::sim
