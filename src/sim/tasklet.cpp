#include "sim/tasklet.hpp"

#include "sim/dpu.hpp"

namespace pimdnn::sim {

namespace sf = softfloat;

TaskletCtx::TaskletCtx(Dpu& dpu, TaskletId id, std::uint32_t n_tasklets,
                       const CostModel& cost, TaskletStats& stats,
                       SubroutineProfile& profile)
    : dpu_(dpu),
      id_(id),
      n_tasklets_(n_tasklets),
      cost_(cost),
      stats_(stats),
      profile_(profile) {}

MemSize TaskletCtx::mram_addr(const std::string& symbol) const {
  const SymbolInfo& s = dpu_.symbol(symbol);
  if (s.kind != MemKind::Mram) {
    throw SymbolError("symbol '" + symbol + "' is not in MRAM");
  }
  return s.offset;
}

void TaskletCtx::wram_raw(const std::string& symbol, void*& p,
                          MemSize& bytes) const {
  const SymbolInfo& s = dpu_.symbol(symbol);
  if (s.kind != MemKind::Wram) {
    throw SymbolError("symbol '" + symbol + "' is not in WRAM");
  }
  p = dpu_.wram_.span(s.offset, s.size);
  bytes = s.size;
}

void TaskletCtx::mram_read(void* wram_dst, MemSize src, MemSize bytes) {
  dpu_.mram_.read(wram_dst, src, bytes);
  const Cycles c = CostModel::dma_cycles(bytes);
  stats_.dma_cycles += c;
  stats_.dma_transfers += 1;
  stats_.dma_bytes += bytes;
}

void TaskletCtx::mram_write(MemSize dst, const void* wram_src,
                            MemSize bytes) {
  dpu_.mram_.write(dst, wram_src, bytes);
  const Cycles c = CostModel::dma_cycles(bytes);
  stats_.dma_cycles += c;
  stats_.dma_transfers += 1;
  stats_.dma_bytes += bytes;
}

std::int32_t TaskletCtx::add(std::int32_t a, std::int32_t b) {
  stats_.slots += cost_.alu_stmt();
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}

std::int32_t TaskletCtx::sub(std::int32_t a, std::int32_t b) {
  stats_.slots += cost_.alu_stmt();
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                   static_cast<std::uint32_t>(b));
}

std::uint32_t TaskletCtx::and_(std::uint32_t a, std::uint32_t b) {
  stats_.slots += cost_.alu_stmt();
  return a & b;
}

std::uint32_t TaskletCtx::or_(std::uint32_t a, std::uint32_t b) {
  stats_.slots += cost_.alu_stmt();
  return a | b;
}

std::uint32_t TaskletCtx::xor_(std::uint32_t a, std::uint32_t b) {
  stats_.slots += cost_.alu_stmt();
  return a ^ b;
}

std::uint32_t TaskletCtx::shl(std::uint32_t a, unsigned n) {
  stats_.slots += cost_.alu_stmt();
  return n >= 32 ? 0 : a << n;
}

std::uint32_t TaskletCtx::shr(std::uint32_t a, unsigned n) {
  stats_.slots += cost_.alu_stmt();
  return n >= 32 ? 0 : a >> n;
}

std::int32_t TaskletCtx::mul(std::int32_t a, std::int32_t b, unsigned bits) {
  charge_mul(bits, 1);
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) *
                                   static_cast<std::uint32_t>(b));
}

std::int64_t TaskletCtx::mul64(std::int64_t a, std::int64_t b) {
  charge_subroutine(Subroutine::MulDI3, 1);
  stats_.slots += cost_.alu_stmt();
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

std::int32_t TaskletCtx::divi(std::int32_t a, std::int32_t b) {
  stats_.slots += cost_.div_stmt();
  if (b == 0) {
    throw UsageError("DPU integer division by zero");
  }
  return a / b;
}

std::int32_t TaskletCtx::popcount(std::uint32_t v) {
  stats_.slots += 12; // shift/mask/add tree; no popcount instruction
  int c = 0;
  while (v != 0) {
    v &= v - 1;
    ++c;
  }
  return c;
}

float TaskletCtx::fadd(float a, float b) {
  charge_subroutine(Subroutine::AddSF3, 1);
  stats_.slots += cost_.alu_stmt();
  return sf::from_bits(sf::add(sf::to_bits(a), sf::to_bits(b)));
}

float TaskletCtx::fsub(float a, float b) {
  charge_subroutine(Subroutine::SubSF3, 1);
  stats_.slots += cost_.alu_stmt();
  return sf::from_bits(sf::sub(sf::to_bits(a), sf::to_bits(b)));
}

float TaskletCtx::fmul(float a, float b) {
  charge_subroutine(Subroutine::MulSF3, 1);
  stats_.slots += cost_.alu_stmt();
  return sf::from_bits(sf::mul(sf::to_bits(a), sf::to_bits(b)));
}

float TaskletCtx::fdiv(float a, float b) {
  charge_subroutine(Subroutine::DivSF3, 1);
  stats_.slots += cost_.alu_stmt();
  return sf::from_bits(sf::div(sf::to_bits(a), sf::to_bits(b)));
}

bool TaskletCtx::flt(float a, float b) {
  charge_subroutine(Subroutine::LtSF2, 1);
  stats_.slots += cost_.alu_stmt();
  return sf::lt(sf::to_bits(a), sf::to_bits(b));
}

float TaskletCtx::i2f(std::int32_t v) {
  charge_subroutine(Subroutine::FloatSISF, 1);
  stats_.slots += cost_.alu_stmt();
  return sf::from_bits(sf::from_i32(v));
}

std::int32_t TaskletCtx::f2i(float v) {
  charge_subroutine(Subroutine::FixSFSI, 1);
  stats_.slots += cost_.alu_stmt();
  return sf::to_i32(sf::to_bits(v));
}

double TaskletCtx::dadd(double a, double b) {
  charge_subroutine(Subroutine::AddDF3, 1);
  stats_.slots += cost_.alu_stmt();
  namespace sf64 = softfloat64;
  return sf64::from_bits(sf64::add(sf64::to_bits(a), sf64::to_bits(b)));
}

double TaskletCtx::dsub(double a, double b) {
  charge_subroutine(Subroutine::SubDF3, 1);
  stats_.slots += cost_.alu_stmt();
  namespace sf64 = softfloat64;
  return sf64::from_bits(sf64::sub(sf64::to_bits(a), sf64::to_bits(b)));
}

double TaskletCtx::dmul(double a, double b) {
  charge_subroutine(Subroutine::MulDF3, 1);
  stats_.slots += cost_.alu_stmt();
  namespace sf64 = softfloat64;
  return sf64::from_bits(sf64::mul(sf64::to_bits(a), sf64::to_bits(b)));
}

double TaskletCtx::ddiv(double a, double b) {
  charge_subroutine(Subroutine::DivDF3, 1);
  stats_.slots += cost_.alu_stmt();
  namespace sf64 = softfloat64;
  return sf64::from_bits(sf64::div(sf64::to_bits(a), sf64::to_bits(b)));
}

void TaskletCtx::charge_alu(std::uint64_t n) {
  stats_.slots += n * cost_.alu_stmt();
}

void TaskletCtx::charge_loop(std::uint64_t iters) {
  stats_.slots += iters * cost_.loop_iter();
}

void TaskletCtx::charge_mul(unsigned bits, std::uint64_t n) {
  stats_.slots += n * cost_.mul_stmt(bits);
  if (cost_.mul_uses_subroutine(bits)) {
    profile_.record(Subroutine::MulSI3, n);
  }
}

void TaskletCtx::charge_subroutine(Subroutine s, std::uint64_t n) {
  stats_.slots += n * CostModel::subroutine_slots(s);
  profile_.record(s, n);
}

void TaskletCtx::perfcounter_config() { perf_base_ = elapsed(); }

Cycles TaskletCtx::perfcounter_get() const { return elapsed() - perf_base_; }

Cycles TaskletCtx::elapsed() const {
  return tasklet_cycles(stats_, dpu_.config());
}

} // namespace pimdnn::sim
