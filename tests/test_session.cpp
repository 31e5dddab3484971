// KernelSession tests: the shared offload choreography (residency-gated
// constant broadcast, resident scatter skip, padded-tail gather, per-session
// host-stat deltas) plus cold/warm parity of the pooled eBNN, deep-eBNN and
// item-kernel batch clients — warm batches must be bit-exact while moving
// exactly their WRAM constants fewer bytes.
#include <gtest/gtest.h>

#include <cstring>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "core/offloader.hpp"
#include "ebnn/deep.hpp"
#include "ebnn/host.hpp"
#include "ebnn/lut.hpp"
#include "ebnn/mnist_synth.hpp"
#include "ebnn/model.hpp"
#include "runtime/dpu_pool.hpp"
#include "runtime/kernel_session.hpp"
#include "sim/fault.hpp"

namespace pimdnn {
namespace {

using runtime::DpuPool;
using runtime::KernelSession;
using runtime::LaunchStats;
using sim::MemKind;
using sim::TaskletCtx;

// ---- a tiny echo kernel to drive the session directly ----------------------

constexpr std::uint32_t kPerDpu = 2;

/// out[i] = in[i] + consts[0] for the meta-count items of this DPU.
sim::DpuProgram echo_program() {
  sim::DpuProgram p;
  p.name = "echo";
  p.symbols = {{"meta", MemKind::Wram, 8},
               {"consts", MemKind::Wram, 8},
               {"buf", MemKind::Wram, 16 * 8},
               {"in_mram", MemKind::Mram, kPerDpu * 8},
               {"out_mram", MemKind::Mram, kPerDpu * 8}};
  p.entry = [](TaskletCtx& ctx) {
    auto meta = ctx.wram_span<std::uint64_t>("meta");
    auto consts = ctx.wram_span<std::uint64_t>("consts");
    auto buf = ctx.wram_span<std::uint64_t>("buf");
    const std::uint64_t n = meta[0];
    std::uint64_t* slot = buf.data() + ctx.id();
    const MemSize in = ctx.mram_addr("in_mram");
    const MemSize out = ctx.mram_addr("out_mram");
    for (std::uint64_t i = ctx.id(); i < n; i += ctx.n_tasklets()) {
      ctx.mram_read(slot, in + i * 8, 8);
      ctx.charge_alu(1);
      *slot += consts[0];
      ctx.mram_write(out + i * 8, slot, 8);
    }
  };
  return p;
}

/// One full echo offload through a KernelSession. Reports whether the
/// constant broadcast actually transferred and the session's LaunchStats.
std::vector<std::uint64_t> echo_once(DpuPool& pool,
                                     const std::vector<std::uint64_t>& in,
                                     std::uint64_t addend,
                                     LaunchStats* stats = nullptr,
                                     bool* const_sent = nullptr) {
  const auto n_dpus = KernelSession::dpus_for(in.size(), kPerDpu);
  KernelSession s(pool, "echo", n_dpus, echo_program);
  const bool sent = s.broadcast_const("consts", &addend, sizeof(addend));
  if (const_sent != nullptr) {
    *const_sent = sent;
  }
  s.scatter_items("in_mram", "meta", in.size(), kPerDpu, 8, 8,
                  [&](std::size_t i) { return &in[i]; });
  s.launch(2);
  std::vector<std::uint64_t> out(in.size());
  s.gather_items("out_mram", in.size(), kPerDpu, 8,
                 [&](std::size_t i, const std::uint8_t* slot) {
                   std::memcpy(&out[i], slot, 8);
                 });
  const LaunchStats st = s.finish();
  if (stats != nullptr) {
    *stats = st;
  }
  return out;
}

TEST(Session, RoundtripDiscardsPaddedTail) {
  // 5 items at 2 per DPU -> 3 DPUs, the last one half-full. The gather
  // must hand back exactly the 5 real items in order; the padded sixth
  // slot never reaches the sink.
  DpuPool pool;
  const std::vector<std::uint64_t> in{10, 20, 30, 40, 50};
  LaunchStats stats;
  const auto out = echo_once(pool, in, 7, &stats);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], in[i] + 7) << "item " << i;
  }
  // The session stamped its own host-side accounting.
  EXPECT_EQ(stats.host.program_loads, 1u);
  EXPECT_GT(stats.host.bytes_to_dpu, 0u);
  // 3 DPUs x 2 slots x 8 bytes gathered, padding included.
  EXPECT_EQ(stats.host.bytes_from_dpu, 3u * kPerDpu * 8u);
  EXPECT_GT(stats.host.host_seconds(), 0.0);
}

TEST(Session, BroadcastConstGatesOnActivation) {
  DpuPool pool;
  const std::vector<std::uint64_t> in{1, 2, 3};
  bool sent = false;

  // Cold: Fresh activation, the constant must go out.
  auto out = echo_once(pool, in, 100, nullptr, &sent);
  EXPECT_TRUE(sent);
  EXPECT_EQ(out[0], 101u);

  // Warm: Active, WRAM still holds the constant -> skipped. The stale
  // addend passed here must NOT take effect, proving the skip is real.
  out = echo_once(pool, in, 999, nullptr, &sent);
  EXPECT_FALSE(sent);
  EXPECT_EQ(out[0], 101u);

  // Activate a different program: WRAM is clobbered (Switched on return),
  // so the next echo session must re-send its constant.
  {
    auto other = [] {
      auto p = echo_program();
      p.name = "other";
      return p;
    };
    KernelSession s(pool, "other", 1, other);
    EXPECT_EQ(s.activation(), DpuPool::Activation::Fresh);
  }
  out = echo_once(pool, in, 5, nullptr, &sent);
  EXPECT_TRUE(sent);
  EXPECT_EQ(out[0], 6u);

  // A quarantine remap slides the logical prefix onto a DPU that never
  // received the constant: the program is still Active, yet the next
  // session must re-send (3 items at 2 per DPU span 2 DPUs).
  DpuPool remapped;
  remapped.reserve(3);
  out = echo_once(remapped, in, 40, nullptr, &sent);
  EXPECT_TRUE(sent);
  ASSERT_TRUE(remapped.note_fault(0, sim::FaultKind::BadDpu));
  out = echo_once(remapped, in, 40, nullptr, &sent);
  EXPECT_TRUE(sent);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{41, 42, 43}));
  std::uint64_t held = 0;
  remapped.set().copy_from(1, "consts", 0, &held, sizeof(held));
  EXPECT_EQ(held, 40u); // logical DPU 1 is physical DPU 2
}

TEST(Session, ScatterResidentSkipsUntilVersionBump) {
  DpuPool pool;
  auto run = [&](std::uint64_t version, const std::vector<std::uint64_t>& data,
                 bool* uploaded) {
    KernelSession s(pool, "echo", 1, echo_program);
    const std::uint64_t add = 0;
    s.broadcast_const("consts", &add, sizeof(add));
    *uploaded = s.scatter_resident(
        "payload", version, "in_mram", kPerDpu * 8,
        [&](std::uint32_t, std::uint8_t* slot) {
          std::memcpy(slot, data.data(), data.size() * 8);
        });
    const std::uint64_t n = kPerDpu;
    s.broadcast("meta", &n, sizeof(n));
    s.launch(2);
    std::vector<std::uint64_t> out(kPerDpu);
    s.gather_items("out_mram", kPerDpu, kPerDpu, 8,
                   [&](std::size_t i, const std::uint8_t* slot) {
                     std::memcpy(&out[i], slot, 8);
                   });
    s.finish();
    return out;
  };

  bool uploaded = false;
  auto out = run(1, {10, 20}, &uploaded);
  EXPECT_TRUE(uploaded);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{10, 20}));

  // Same (tag, version): skipped; the MRAM payload from the first call is
  // still what the kernel reads.
  out = run(1, {99, 99}, &uploaded);
  EXPECT_FALSE(uploaded);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{10, 20}));

  // Version bump: re-uploaded.
  out = run(2, {7, 8}, &uploaded);
  EXPECT_TRUE(uploaded);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{7, 8}));
}

TEST(Session, FinishReportsPerSessionDelta) {
  // Each session's stats must cover exactly its own traffic, not the
  // pool's cumulative counters.
  DpuPool pool;
  const std::vector<std::uint64_t> in{4, 5, 6, 7};
  LaunchStats cold, warm;
  echo_once(pool, in, 1, &cold);
  echo_once(pool, in, 1, &warm);

  EXPECT_EQ(cold.host.program_loads, 1u);
  EXPECT_EQ(cold.host.cached_activations, 0u);
  EXPECT_EQ(warm.host.program_loads, 0u);
  EXPECT_EQ(warm.host.cached_activations, 1u);
  // Warm skipped the constant broadcast (8 bytes to each of 2 DPUs);
  // everything else is identical.
  EXPECT_EQ(cold.host.bytes_to_dpu - warm.host.bytes_to_dpu, 2u * 8u);
  EXPECT_EQ(cold.host.bytes_from_dpu, warm.host.bytes_from_dpu);
  // The pool's cumulative ledger is the sum of both sessions.
  EXPECT_EQ(pool.host_stats().bytes_to_dpu,
            cold.host.bytes_to_dpu + warm.host.bytes_to_dpu);
  EXPECT_EQ(pool.host_stats().bytes_from_dpu,
            cold.host.bytes_from_dpu + warm.host.bytes_from_dpu);
}

// ---- pooled eBNN host: cold/warm parity ------------------------------------

namespace eb = pimdnn::ebnn;

eb::EbnnConfig small_ebnn() {
  eb::EbnnConfig cfg;
  cfg.filters = 8;
  return cfg;
}

TEST(EbnnPool, WarmBatchBitExactWithCheaperHostPath) {
  const eb::EbnnConfig cfg = small_ebnn();
  const auto w = eb::EbnnWeights::random(cfg, 99);
  eb::EbnnReference ref(cfg, w);
  const auto data = eb::make_synthetic_mnist(20, 123); // spans 2 DPUs
  eb::EbnnHost host(cfg, w, eb::BnMode::HostLut);

  const auto cold = host.run(eb::images_only(data), 16);
  const auto warm = host.run(eb::images_only(data), 16);

  // Bit-exact across batches and against the golden model.
  EXPECT_EQ(warm.predicted, cold.predicted);
  EXPECT_EQ(warm.features, cold.features);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto golden = ref.infer(data[i].pixels.data());
    EXPECT_EQ(cold.features[i], golden.feature) << "image " << i;
    EXPECT_EQ(cold.predicted[i], golden.predicted) << "image " << i;
  }

  // Cold batch loads the program; warm batch is served from the cache.
  EXPECT_EQ(cold.launch.host.program_loads, 1u);
  EXPECT_EQ(cold.launch.host.cached_activations, 0u);
  EXPECT_EQ(warm.launch.host.program_loads, 0u);
  EXPECT_EQ(warm.launch.host.cached_activations, 1u);

  // Warm re-sends only images + counts: exactly the conv weights and the
  // BN LUT drop out of the host->DPU traffic.
  EXPECT_LT(warm.launch.host.bytes_to_dpu, cold.launch.host.bytes_to_dpu);
  const auto lut = eb::build_bn_binact_lut(cfg, w.bn);
  const std::uint64_t resident_bytes =
      align_up(w.conv_bits.size() * sizeof(std::uint32_t), kXferAlign) +
      align_up(lut.table.size(), kXferAlign);
  EXPECT_EQ(cold.launch.host.bytes_to_dpu - warm.launch.host.bytes_to_dpu,
            cold.dpus_used * resident_bytes); // broadcasts count per DPU
  EXPECT_EQ(cold.launch.host.bytes_from_dpu, warm.launch.host.bytes_from_dpu);

  // The eBNN path reports real (non-zero) host overhead on every batch.
  EXPECT_GT(cold.launch.host.host_seconds(), 0.0);
  EXPECT_GT(warm.launch.host.host_seconds(), 0.0);
  EXPECT_GT(warm.launch.host.bytes_to_dpu, 0u);
}

TEST(EbnnPool, SoftFloatModeAlsoReusesResidentConstants) {
  const eb::EbnnConfig cfg = small_ebnn();
  const auto w = eb::EbnnWeights::random(cfg, 7);
  const auto data = eb::make_synthetic_mnist(10, 17);
  eb::EbnnHost host(cfg, w, eb::BnMode::SoftFloat);

  const auto cold = host.run(eb::images_only(data), 16);
  const auto warm = host.run(eb::images_only(data), 16);
  EXPECT_EQ(warm.predicted, cold.predicted);
  EXPECT_EQ(warm.features, cold.features);
  EXPECT_EQ(warm.launch.host.program_loads, 0u);
  EXPECT_LT(warm.launch.host.bytes_to_dpu, cold.launch.host.bytes_to_dpu);
}

TEST(EbnnPool, GrowingBatchRebuildsAndStaysCorrect) {
  const eb::EbnnConfig cfg = small_ebnn();
  const auto w = eb::EbnnWeights::random(cfg, 3);
  eb::EbnnReference ref(cfg, w);
  eb::EbnnHost host(cfg, w, eb::BnMode::HostLut);

  auto check = [&](const std::vector<eb::LabeledImage>& data,
                   const eb::EbnnBatchResult& r) {
    ASSERT_EQ(r.predicted.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(r.features[i], ref.infer(data[i].pixels.data()).feature)
          << "image " << i;
    }
  };

  // 8 images -> 1 DPU (cold).
  const auto d1 = eb::make_synthetic_mnist(8, 1);
  const auto r1 = host.run(eb::images_only(d1), 16);
  EXPECT_EQ(r1.dpus_used, 1u);
  check(d1, r1);

  // 40 images -> 3 DPUs: the pool must grow, which rebuilds the program
  // and re-sends the constants — results stay correct.
  const auto d2 = eb::make_synthetic_mnist(40, 2);
  const auto r2 = host.run(eb::images_only(d2), 16);
  EXPECT_EQ(r2.dpus_used, 3u);
  EXPECT_GE(r2.launch.host.program_loads, 1u);
  check(d2, r2);

  // Back to a small batch: served warm on a prefix of the grown pool.
  const auto d3 = eb::make_synthetic_mnist(16, 3);
  const auto r3 = host.run(eb::images_only(d3), 16);
  EXPECT_EQ(r3.dpus_used, 1u);
  EXPECT_EQ(r3.launch.host.program_loads, 0u);
  EXPECT_EQ(r3.launch.host.cached_activations, 1u);
  check(d3, r3);
}

// ---- pooled deep-eBNN host: cold/warm parity -------------------------------

TEST(DeepEbnnPool, WarmBatchBitExactWithCheaperHostPath) {
  eb::DeepEbnnConfig cfg;
  cfg.blocks = {{6}, {6}};
  const auto w = eb::DeepEbnnWeights::random(cfg, 11);
  eb::DeepEbnnReference ref(cfg, w);
  const auto data = eb::make_synthetic_mnist(12, 5);
  eb::DeepEbnnHost host(cfg, w);

  const auto cold = host.run(eb::images_only(data));
  const auto warm = host.run(eb::images_only(data));

  EXPECT_EQ(warm.predicted, cold.predicted);
  EXPECT_EQ(warm.features, cold.features);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto golden = ref.infer(data[i].pixels.data());
    EXPECT_EQ(cold.features[i], golden.feature) << "image " << i;
    EXPECT_EQ(cold.predicted[i], golden.predicted) << "image " << i;
  }

  // The auto mapping may carve the batch into dual-bank sub-launches:
  // the cold batch then loads the program once per bank touched, and the
  // warm batch serves every sub-launch from the cache.
  EXPECT_EQ(warm.split, cold.split);
  EXPECT_EQ(cold.launch.host.program_loads, std::min(cold.split, 2u));
  EXPECT_EQ(warm.launch.host.program_loads, 0u);
  EXPECT_EQ(warm.launch.host.cached_activations, warm.split);
  // Warm re-sends only images + counts: exactly the per-block conv words
  // and LUTs drop out. With at most two sub-launches each is its bank's
  // first, so the cold batch sent them once to every DPU it used.
  ASSERT_LE(cold.split, 2u);
  std::size_t conv_words = 0;
  std::size_t lut_bytes = 0;
  const auto dims = eb::deep_dims(cfg);
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    conv_words += w.conv[b].size();
    lut_bytes +=
        eb::build_bn_binact_lut_range(-dims[b].taps, dims[b].taps, w.bn[b])
            .bytes();
  }
  const std::uint64_t resident_bytes =
      align_up(conv_words * sizeof(std::uint32_t), kXferAlign) +
      align_up(lut_bytes, kXferAlign);
  EXPECT_EQ(cold.launch.host.bytes_to_dpu - warm.launch.host.bytes_to_dpu,
            cold.dpus_used * resident_bytes);
  EXPECT_EQ(cold.launch.host.bytes_from_dpu, warm.launch.host.bytes_from_dpu);
  EXPECT_GT(cold.launch.host.host_seconds(), 0.0);
  EXPECT_GT(warm.launch.host.host_seconds(), 0.0);

  // The host's cumulative pool ledger covers both batches.
  EXPECT_EQ(host.pool_host_stats().bytes_to_dpu,
            cold.launch.host.bytes_to_dpu + warm.launch.host.bytes_to_dpu);
}

// ---- item-kernel offloader: cold/warm parity -------------------------------

TEST(OffloaderPool, WarmBatchSkipsExactlyTheConstants) {
  core::WorkloadSpec spec;
  spec.name = "add";
  spec.item_in_bytes = 8;
  spec.item_out_bytes = 8;
  spec.items_per_dpu = 4;
  spec.consts = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}; // pads to 16
  core::Offloader off(spec, [](core::ItemCtx& ic) {
    for (int i = 0; i < 8; ++i) {
      ic.output[i] = static_cast<std::uint8_t>(ic.input[i] + ic.consts[i]);
    }
    ic.ctx.charge_alu(8);
  });
  std::vector<std::vector<std::uint8_t>> items(10,
                                              std::vector<std::uint8_t>(8));
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i][0] = static_cast<std::uint8_t>(i);
  }

  const auto cold = off.run(items, 4); // 3 DPUs
  const auto warm = off.run(items, 4);
  EXPECT_EQ(warm.outputs, cold.outputs);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(cold.outputs[i][0], i + 1) << "item " << i;
    EXPECT_EQ(cold.outputs[i][7], 8u) << "item " << i;
  }
  EXPECT_EQ(cold.dpus_used, 3u);
  EXPECT_EQ(warm.launch.host.program_loads, 0u);
  EXPECT_EQ(cold.launch.host.bytes_to_dpu - warm.launch.host.bytes_to_dpu,
            cold.dpus_used * align_up(spec.consts.size(), kXferAlign));
  EXPECT_EQ(cold.launch.host.bytes_from_dpu, warm.launch.host.bytes_from_dpu);
}

} // namespace
} // namespace pimdnn
