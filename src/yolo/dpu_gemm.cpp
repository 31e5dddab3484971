#include "yolo/dpu_gemm.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/fixed_point.hpp"
#include "map/constraints.hpp"
#include "nn/gemm.hpp"
#include "runtime/banked_executor.hpp"
#include "runtime/kernel_session.hpp"
#include "sim/charges.hpp"

namespace pimdnn::yolo {

using runtime::KernelSession;
using sim::CostModel;
using sim::MemKind;
using sim::TaskletCtx;

namespace {

/// Maximum bytes per single MRAM->WRAM DMA (the same 2048-byte limit that
/// caps eBNN at 16 images, §4.1.3).
constexpr MemSize kDmaMax = 2048;

struct Meta {
  std::uint64_t n;
  std::uint64_t k;
  std::int64_t alpha;
  std::uint64_t variant;
  std::uint64_t rows;
};

MemSize a_stride_bytes(int k) { return map::gemm_a_stride_bytes(k); }

MemSize c_stride_bytes(int n) {
  return align_up(static_cast<MemSize>(n) * 2, kXferAlign);
}

/// WramTiled stages the A rows in phase 0 and computes after the barrier.
std::uint32_t gemm_phases(GemmVariant variant) {
  return variant == GemmVariant::WramTiled ? 2 : 1;
}

/// What `gemm_tasklet` charges tasklet `t` of `n_tasklets` computing
/// `rows` rows over a whole launch. The interpreted kernel issues these
/// charges op by op; the fast twin applies the counts in bulk and
/// estimate_gemm_row_cycles prices the whole record, so this is the one
/// closed form of the kernel's cost. O(1): tasklet t takes strips t, t+T,
/// ... of each row, and only a row's last strip can be narrower than
/// kGemmStrip. Inline: the mapper prices thousands of candidates per plan,
/// and an out-of-line recipe made estimate_gemm_row_cycles 1.7x slower.
inline sim::KernelCharges gemm_charges(int n, int k, GemmVariant variant,
                                       int rows, std::uint32_t t,
                                       std::uint32_t n_tasklets) {
  const bool tiled = variant == GemmVariant::WramTiled;
  const auto uk = static_cast<std::uint64_t>(k);
  const auto urows = static_cast<std::uint64_t>(rows);
  sim::KernelCharges c;
  const auto add_dma = [&c](MemSize bytes, std::uint64_t count) {
    c.dma += count * CostModel::dma_cycles(bytes);
  };
  c.alu = 5; // meta loads
  c.barriers = gemm_phases(variant) - 1;
  if (tiled && t == 0) {
    // Phase 0: one loop iteration per <=2048-byte A staging DMA.
    const MemSize row_bytes = static_cast<MemSize>(k) * 2;
    const std::uint64_t full = row_bytes / kDmaMax;
    const MemSize tail = row_bytes % kDmaMax;
    add_dma(kDmaMax, urows * full);
    add_dma(tail, tail != 0 ? urows : 0);
    c.loops += urows * (full + (tail != 0 ? 1 : 0));
  }
  c.loops += urows; // row loop

  const auto n_strips = static_cast<std::uint32_t>(
      (n + kGemmStrip - 1) / kGemmStrip);
  const std::uint64_t mine =
      t < n_strips ? (n_strips - 1 - t) / n_tasklets + 1 : 0;
  const std::uint64_t last =
      mine != 0 && (n_strips - 1) % n_tasklets == t ? 1 : 0;
  const auto strips = [&](std::uint64_t cols, std::uint64_t count) {
    const std::uint64_t s = urows * count;
    // Zeroing and the output stage (cols iterations each), then k
    // iterations of: WramTiled's A load, the APART multiply and the
    // cols-wide MAC loop (one 32-bit multiply and 4 statements per MAC).
    c.loops += s * (2 * cols + uk * (1 + cols));
    c.alu += s * (5 * cols + uk * ((tiled ? 1 : 0) + 4 * cols));
    c.mul16 += s * uk;
    c.mul32 += s * uk * cols;
    add_dma(2 * cols, s * (uk + 1)); // the B strip per k, then C
    if (!tiled) {
      add_dma(8, s * uk);                  // the A element per k
      add_dma(4 * cols, s * (2 * uk + 1)); // flush, then RMW per k
    }
  };
  strips(kGemmStrip, mine - last);
  strips(static_cast<std::uint64_t>(n) - (n_strips - 1) * kGemmStrip, last);
  return c;
}

/// One tasklet's view of the launch: metadata, its WRAM strip buffers and
/// the MRAM symbol bases, read the same way by the kernel and its twin.
struct GemmView {
  int n, k, rows;
  std::int32_t alpha;
  GemmVariant variant;
  std::int16_t* a_wram;
  std::int16_t* bch;
  std::int32_t* ctmp;
  std::int16_t* cout;
  MemSize a_base, b_base, c_base, ctmp_base, a_stride, c_stride;

  GemmView(TaskletCtx& ctx, const Meta& meta)
      : n(static_cast<int>(meta.n)),
        k(static_cast<int>(meta.k)),
        rows(static_cast<int>(meta.rows)),
        alpha(static_cast<std::int32_t>(meta.alpha)),
        variant(static_cast<GemmVariant>(meta.variant)) {
    a_wram = ctx.wram_span<std::int16_t>("a_wram").data();
    bch = ctx.wram_span<std::int16_t>("bchunk").data() +
          ctx.id() * kGemmStrip;
    ctmp = ctx.wram_span<std::int32_t>("ctmpw").data() +
           ctx.id() * kGemmStrip;
    cout = ctx.wram_span<std::int16_t>("coutw").data() +
           ctx.id() * kGemmStrip;
    a_base = ctx.mram_addr("a_rows");
    b_base = ctx.mram_addr("b_mat");
    c_base = ctx.mram_addr("c_rows");
    ctmp_base = ctx.mram_addr("ctmp_mram");
    a_stride = a_stride_bytes(k);
    c_stride = c_stride_bytes(n);
  }
};

const Meta& gemm_meta(TaskletCtx& ctx) {
  return ctx.wram_span<Meta>("meta")[0];
}

/// WramTiled phase 0 on tasklet 0: stages every assigned A row into WRAM
/// in <=2048-byte DMAs, calling `per_dma` after each.
template <typename PerDma>
void stage_a_rows(TaskletCtx& ctx, const GemmView& g, PerDma per_dma) {
  const MemSize row_bytes = static_cast<MemSize>(g.k) * 2;
  for (int r = 0; r < g.rows; ++r) {
    auto* dst = reinterpret_cast<std::uint8_t*>(
        g.a_wram + static_cast<std::size_t>(r) * g.k);
    for (MemSize off = 0; off < row_bytes;) {
      const MemSize chunk = std::min<MemSize>(kDmaMax, row_bytes - off);
      ctx.mram_read(dst + off, g.a_base + r * g.a_stride + off, chunk);
      per_dma();
      off += chunk;
    }
  }
}

/// The output stage (Algorithm 2 line 9): C = absolutemax(ctmp/32, 32767),
/// written back to the row's C strip.
void write_c_strip(TaskletCtx& ctx, const GemmView& g, int r, int c0,
                   int cols) {
  for (int j = 0; j < cols; ++j) {
    g.cout[j] = saturate_shift_down(g.ctmp[j], 5, 32767);
  }
  ctx.mram_write(g.c_base + r * g.c_stride + static_cast<MemSize>(c0) * 2,
                 g.cout, static_cast<MemSize>(cols) * 2);
}

/// The interpreted kernel: the per-operation reference for every charge
/// (see gemm_charges) and every memory effect.
void gemm_tasklet(TaskletCtx& ctx) {
  const GemmView g(ctx, gemm_meta(ctx));
  const int n = g.n;
  const int k = g.k;

  if (ctx.phase() == 0) {
    ctx.charge_alu(5); // meta loads
    require(ctx.n_tasklets() <= map::kMaxGemmTasklets,
            "GEMM program supports at most 16 tasklets");
  }

  // WramTiled phase 0: tasklet 0 stages every assigned A row into WRAM
  // once. The barrier before phase 1 keeps every tasklet from reading
  // unstaged rows.
  if (g.variant == GemmVariant::WramTiled && ctx.phase() == 0) {
    if (ctx.id() == 0) {
      stage_a_rows(ctx, g, [&] { ctx.charge_loop(1); });
    }
    return;
  }

  const int n_strips = (n + kGemmStrip - 1) / kGemmStrip;
  for (int r = 0; r < g.rows; ++r) {
    ctx.charge_loop(1);
    for (int strip = static_cast<int>(ctx.id()); strip < n_strips;
         strip += static_cast<int>(ctx.n_tasklets())) {
      const int c0 = strip * kGemmStrip;
      const int cols = std::min(kGemmStrip, n - c0);
      const MemSize ctmp_addr = g.ctmp_base + static_cast<MemSize>(c0) * 4;

      // Zero the accumulator strip.
      ctx.charge_loop(static_cast<std::uint64_t>(cols));
      ctx.charge_alu(static_cast<std::uint64_t>(cols));
      std::memset(g.ctmp, 0, static_cast<std::size_t>(cols) * sizeof(*g.ctmp));
      if (g.variant == GemmVariant::MramResident) {
        // The resident accumulator must start from zeros in MRAM too —
        // the k-loop's first read-back would otherwise see the previous
        // row's totals.
        ctx.mram_write(ctmp_addr, g.ctmp, static_cast<MemSize>(cols) * 4);
      }

      for (int kk = 0; kk < k; ++kk) {
        ctx.charge_loop(1);

        std::int32_t a_val;
        if (g.variant == GemmVariant::WramTiled) {
          a_val = g.a_wram[static_cast<std::size_t>(r) * k + kk];
          ctx.charge_alu(1);
        } else {
          // MramResident: fetch the A element through an 8-byte DMA every
          // iteration — the naive port's access pattern.
          std::int16_t tmp[4];
          const MemSize byte = static_cast<MemSize>(kk) * 2;
          ctx.mram_read(tmp, g.a_base + r * g.a_stride + (byte & ~MemSize{7}),
                        8);
          a_val = tmp[byte % 8 / 2];
        }
        // APART = ALPHA * A[i*K+k] (Algorithm 2 line 5): 16x16-bit mult.
        ctx.charge_mul(16, 1);
        const auto apart = static_cast<std::uint32_t>(g.alpha * a_val);

        // Stream this k-row's strip of B through WRAM.
        ctx.mram_read(g.bch,
                      g.b_base + (static_cast<MemSize>(kk) * n + c0) * 2,
                      static_cast<MemSize>(cols) * 2);
        if (g.variant == GemmVariant::MramResident) {
          ctx.mram_read(g.ctmp, ctmp_addr, static_cast<MemSize>(cols) * 4);
        }

        // MAC loop (Algorithm 2 line 7). APART is 32-bit, so every
        // multiply is a __mulsi3 call — the dominant cost of YOLOv3.
        ctx.charge_loop(static_cast<std::uint64_t>(cols));
        ctx.charge_mul(32, static_cast<std::uint64_t>(cols));
        ctx.charge_alu(4 * static_cast<std::uint64_t>(cols));
        for (int j = 0; j < cols; ++j) {
          const auto term =
              apart * static_cast<std::uint32_t>(
                          static_cast<std::int32_t>(g.bch[j]));
          g.ctmp[j] = static_cast<std::int32_t>(
              static_cast<std::uint32_t>(g.ctmp[j]) + term);
        }

        if (g.variant == GemmVariant::MramResident) {
          ctx.mram_write(ctmp_addr, g.ctmp, static_cast<MemSize>(cols) * 4);
        }
      }

      ctx.charge_loop(static_cast<std::uint64_t>(cols));
      ctx.charge_alu(4 * static_cast<std::uint64_t>(cols));
      write_c_strip(ctx, g, r, c0, cols);
    }
  }
}

/// Fast-path twin of `gemm_tasklet` (SimMode::Fast): the same DMAs in the
/// same order (so WRAM scratch, MRAM and every DMA stat match without
/// extra work), the kernel's slot charges applied once per tasklet from
/// gemm_charges, and native arithmetic. It accumulates Σ a·b of the int16
/// operands and scales by ALPHA once per strip: modulo 2^32,
/// Σ (ALPHA·a)·b ≡ ALPHA·Σ a·b, and every a·b fits in int32. The sums are
/// unsigned because two such products can already reach 2^31.
void gemm_tasklet_fast(TaskletCtx& ctx) {
  const Meta& meta = gemm_meta(ctx);
  // MramResident runs on no hot path: its twin is the interpreter.
  if (static_cast<GemmVariant>(meta.variant) == GemmVariant::MramResident) {
    gemm_tasklet(ctx);
    return;
  }
  const auto n = static_cast<int>(meta.n);
  const auto k = static_cast<int>(meta.k);

  if (ctx.phase() == 0) {
    require(ctx.n_tasklets() <= map::kMaxGemmTasklets,
            "GEMM program supports at most 16 tasklets");
    sim::apply_counts(ctx, gemm_charges(n, k, GemmVariant::WramTiled,
                                        static_cast<int>(meta.rows),
                                        ctx.id(), ctx.n_tasklets()));
    if (ctx.id() == 0) {
      stage_a_rows(ctx, GemmView(ctx, meta), [] {});
    }
    return;
  }

  // A tasklet past the last strip has nothing left to do.
  const int n_strips = (n + kGemmStrip - 1) / kGemmStrip;
  if (static_cast<int>(ctx.id()) >= n_strips) {
    return;
  }
  const GemmView g(ctx, meta);
  const auto ualpha = static_cast<std::uint32_t>(g.alpha);
  std::array<std::uint32_t, kGemmStrip> acc;
  for (int r = 0; r < g.rows; ++r) {
    const std::int16_t* a_row = g.a_wram + static_cast<std::size_t>(r) * k;
    for (int strip = static_cast<int>(ctx.id()); strip < n_strips;
         strip += static_cast<int>(ctx.n_tasklets())) {
      const int c0 = strip * kGemmStrip;
      const int cols = std::min(kGemmStrip, n - c0);
      const MemSize b_strip = g.b_base + static_cast<MemSize>(c0) * 2;
      std::fill_n(acc.begin(), cols, 0u);
      for (int kk = 0; kk < k; ++kk) {
        ctx.mram_read(g.bch, b_strip + static_cast<MemSize>(kk) * n * 2,
                      static_cast<MemSize>(cols) * 2);
        const std::int32_t a = a_row[kk];
        for (int j = 0; j < cols; ++j) {
          acc[j] += static_cast<std::uint32_t>(
              a * static_cast<std::int32_t>(g.bch[j]));
        }
      }
      for (int j = 0; j < cols; ++j) {
        g.ctmp[j] = static_cast<std::int32_t>(ualpha * acc[j]);
      }
      write_c_strip(ctx, g, r, c0, cols);
    }
  }
}

} // namespace

sim::DpuProgram make_gemm_program(int n, int k, GemmVariant variant,
                                  int rows_per_dpu) {
  map::require_gemm_shape(n, k);
  map::require_gemm_rows(k, rows_per_dpu);
  const MemSize a_bytes = map::gemm_a_stage_bytes(k, rows_per_dpu);

  sim::DpuProgram prog;
  prog.name = "yolo_gemm";
  prog.iram_bytes = 4096;
  prog.phases = gemm_phases(variant);
  prog.symbols = {
      {"meta", MemKind::Wram, sizeof(Meta)},
      {"a_wram", MemKind::Wram, a_bytes},
      {"bchunk", MemKind::Wram, map::kMaxGemmTasklets * kGemmStrip * 2},
      {"ctmpw", MemKind::Wram, map::kMaxGemmTasklets * kGemmStrip * 4},
      {"coutw", MemKind::Wram, map::kMaxGemmTasklets * kGemmStrip * 2},
      {"a_rows", MemKind::Mram, a_bytes},
      {"b_mat", MemKind::Mram,
       align_up(static_cast<MemSize>(k) * n * 2, kXferAlign)},
      {"c_rows", MemKind::Mram,
       static_cast<MemSize>(rows_per_dpu) * c_stride_bytes(n)},
      {"ctmp_mram", MemKind::Mram,
       align_up(static_cast<MemSize>(n) * 4, kXferAlign)},
  };
  prog.entry = gemm_tasklet;
  prog.fast_entry = gemm_tasklet_fast;
  return prog;
}

map::MappingPlan plan_gemm_mapping(int m, int n, int k, GemmVariant variant,
                                   runtime::OptLevel opt,
                                   std::uint32_t n_tasklets, int rows_per_dpu,
                                   const map::Limits& limits,
                                   std::uint32_t max_split,
                                   const runtime::UpmemConfig& sys) {
  require(m >= 1, "GEMM needs at least one row");
  map::require_gemm_shape(n, k);
  if (rows_per_dpu != map::kAutoRows) {
    map::require_gemm_rows(k, rows_per_dpu);
  }
  if (n_tasklets != map::kAutoTasklets) {
    map::require_gemm_tasklets(n_tasklets);
  }

  map::GemmRequest req;
  req.m = m;
  req.n = n;
  req.k = k;
  req.limits = limits;
  req.kernel_cycles = [n, k, variant, opt, sys](int rows, std::uint32_t t) {
    return estimate_gemm_row_cycles(n, k, variant, t, opt, rows, sys);
  };
  req.bcast_bytes_per_dpu =
      sizeof(Meta) + align_up(static_cast<MemSize>(k) * n * 2, kXferAlign);
  req.a_bytes_per_row = a_stride_bytes(k);
  req.c_bytes_per_row = c_stride_bytes(n);
  req.pinned_rows = rows_per_dpu;
  req.pinned_tasklets = n_tasklets;
  req.max_split = max_split;
  return map::Mapper().plan_gemm(req);
}

GemmResult dpu_gemm_pooled(runtime::DpuPool& pool, int m, int n, int k,
                           std::int16_t alpha,
                           std::span<const std::int16_t> a,
                           std::span<const std::int16_t> b,
                           GemmVariant variant, std::uint32_t n_tasklets,
                           runtime::OptLevel opt, int rows_per_dpu,
                           const std::string& weights_tag,
                           std::uint64_t weights_version) {
  const map::MappingPlan plan =
      plan_gemm_mapping(m, n, k, variant, opt, n_tasklets, rows_per_dpu,
                        map::pool_limits(pool), 1, pool.config());
  return dpu_gemm_planned(pool, nullptr, m, n, k, alpha, a, b, variant, plan,
                          opt, weights_tag, weights_version);
}

GemmResult dpu_gemm_planned(runtime::DpuPool& pool_even,
                            runtime::DpuPool* pool_odd, int m, int n, int k,
                            std::int16_t alpha,
                            std::span<const std::int16_t> a,
                            std::span<const std::int16_t> b,
                            GemmVariant variant, const map::MappingPlan& plan,
                            runtime::OptLevel opt,
                            const std::string& weights_tag,
                            std::uint64_t weights_version,
                            runtime::PipelineModel* model,
                            std::size_t model_item, unsigned lane) {
  require(a.size() >= static_cast<std::size_t>(m) * k, "A too small");
  require(b.size() >= static_cast<std::size_t>(k) * n, "B too small");
  require(plan.split <= 1 || pool_odd != nullptr,
          "dpu_gemm_planned: a split plan needs both bank pools");
  const int rows_per_dpu = plan.rows_per_dpu;
  const auto na = KernelSession::dpus_for(
      static_cast<std::size_t>(m), static_cast<std::uint32_t>(rows_per_dpu));

  GemmResult out;
  out.dpus_used = na;
  out.c.resize(static_cast<std::size_t>(m) * n);

  // Broadcast the kernel metadata every call — alpha is not part of the
  // program signature, so two layers sharing (n, k) may disagree on it.
  const Meta meta{static_cast<std::uint64_t>(n),
                  static_cast<std::uint64_t>(k),
                  static_cast<std::int64_t>(alpha),
                  static_cast<std::uint64_t>(variant),
                  static_cast<std::uint64_t>(rows_per_dpu)};
  const MemSize a_stride = a_stride_bytes(k);
  const MemSize stage_a_bytes =
      static_cast<MemSize>(rows_per_dpu) * a_stride;
  // Program activation: the load is cached by the dimension signature, so
  // warm frames skip the rebuild (and, for the already-active signature,
  // the reload).
  const std::string base_sig =
      "gemm/n=" + std::to_string(n) + "/k=" + std::to_string(k) +
      "/v=" + std::to_string(static_cast<int>(variant)) +
      "/r=" + std::to_string(rows_per_dpu);

  const auto start = [&](const runtime::Chunk& c) {
    const runtime::Chunk::Window rows =
        c.window(static_cast<std::size_t>(m), rows_per_dpu);
    // The weights tag is part of the signature: two layers with identical
    // dimensions but different weights must not share one MRAM region, or
    // the second layer's scatter would evict the first layer's resident
    // rows every frame. Likewise each chunk of a split GEMM scatters a
    // different row block, so its tag gains a chunk suffix.
    std::string tag = weights_tag;
    if (!tag.empty() && c.count > 1) {
      tag += "/s" + std::to_string(c.index);
    }
    runtime::Started started;
    started.session = std::make_unique<KernelSession>(
        c.pool, tag.empty() ? base_sig : base_sig + "/w=" + tag,
        static_cast<std::uint32_t>(c.range.n_units),
        [&] { return make_gemm_program(n, k, variant, rows_per_dpu); });
    KernelSession& session = *started.session;
    // The resolved mapping tags the obs offload summary (not the program
    // cache key above — identical programs still share one load); a chunk
    // is predicted to carry its share of the transfer volume.
    session.annotate(plan.obs_suffix());
    session.set_predicted(plan.predicted.kernel_cycles,
                          (plan.predicted.to_dpu_seconds +
                           plan.predicted.from_dpu_seconds) *
                              (static_cast<double>(c.range.n_units) / na));
    session.broadcast("meta", &meta, sizeof(meta));
    // Broadcast B (the whole input matrix goes to every DPU, Figure 4.6).
    session.broadcast("b_mat", b.data(), static_cast<MemSize>(k) * n * 2);

    // Scatter: rows [d*R, d*R + R) of the chunk's block of A to its DPU d;
    // out-of-range rows stay zero (the padded rows compute to zeros and
    // are discarded on gather). Skipped entirely when the caller tagged A
    // and the tagged version is still MRAM-resident from an earlier call
    // (the warm-frame path).
    const auto fill_a = [&](std::uint32_t d, std::uint8_t* slot) {
      for (int r = 0; r < rows_per_dpu; ++r) {
        const std::size_t row =
            rows.first + static_cast<std::size_t>(d) * rows_per_dpu + r;
        if (row >= static_cast<std::size_t>(m)) break;
        std::memcpy(slot + static_cast<std::size_t>(r) * a_stride,
                    a.data() + row * static_cast<std::size_t>(k),
                    static_cast<std::size_t>(k) * 2);
      }
    };
    if (tag.empty()) {
      session.scatter("a_rows", stage_a_bytes, fill_a);
    } else {
      session.scatter_resident(tag, weights_version, "a_rows", stage_a_bytes,
                               fill_a);
    }
    started.handle = session.launch_async(plan.n_tasklets, opt);
    return started;
  };

  const auto finish = [&](const runtime::Chunk& c,
                          runtime::Started& started) {
    const runtime::Chunk::Window rows =
        c.window(static_cast<std::size_t>(m), rows_per_dpu);
    KernelSession& session = *started.session;
    if (!started.handle.wait()) {
      // A degraded chunk routes its own rows through the fixed-point
      // reference, which matches the DPU kernel bit for bit (the same
      // Algorithm 2 math); the other chunks' DPU results stand as-is.
      nn::gemm_q16_reference(
          static_cast<int>(rows.count), n, k, alpha,
          a.subspan(rows.first * static_cast<std::size_t>(k)), b,
          std::span<std::int16_t>(out.c.data() + rows.first * n,
                                  rows.count * static_cast<std::size_t>(n)));
    } else {
      // Gather: one batched transfer pulls every DPU's full C block; the
      // session unpacks the real rows (dropping each row's alignment
      // padding and the padded tail rows of the last DPU).
      session.gather_items(
          "c_rows", rows.count, static_cast<std::uint32_t>(rows_per_dpu),
          c_stride_bytes(n), [&](std::size_t i, const std::uint8_t* slot) {
            std::memcpy(out.c.data() + (rows.first + i) * n, slot,
                        static_cast<std::size_t>(n) * 2);
          });
    }
    const runtime::LaunchStats st = session.finish();
    // To-DPU transfers + program loads occupy host AND the bank; the
    // launch occupies only the bank — the window the other bank's host
    // stages overlap; the gather occupies both again. Degraded chunks
    // report zero DPU time.
    c.xfer(st.host.to_dpu_seconds + st.host.load_seconds);
    c.kernel(st.wall_seconds);
    c.xfer(st.host.from_dpu_seconds);
    c.fold(out.stats, st);
    out.split = static_cast<std::uint32_t>(c.count);
  };

  runtime::run_jobs(
      1,
      [&](std::size_t, runtime::DpuPool&, bool) {
        return runtime::Job{na, plan.split, start, finish};
      },
      [&](unsigned bank) -> runtime::DpuPool& {
        return bank == 0 ? pool_even : *pool_odd;
      },
      model, model_item, lane);
  return out;
}

GemmResult dpu_gemm(int m, int n, int k, std::int16_t alpha,
                    std::span<const std::int16_t> a,
                    std::span<const std::int16_t> b, GemmVariant variant,
                    std::uint32_t n_tasklets, runtime::OptLevel opt,
                    const runtime::UpmemConfig& sys, int rows_per_dpu) {
  runtime::DpuPool pool(sys);
  return dpu_gemm_pooled(pool, m, n, k, alpha, a, b, variant, n_tasklets,
                         opt, rows_per_dpu);
}

Cycles estimate_gemm_row_cycles(int n, int k, GemmVariant variant,
                                std::uint32_t n_tasklets,
                                runtime::OptLevel opt, int rows_per_dpu,
                                const runtime::UpmemConfig& sys) {
  map::require_gemm_shape(n, k);
  map::require_positive_rows(rows_per_dpu);
  map::require_gemm_tasklets(n_tasklets);
  return sim::priced_wall(n_tasklets, opt, sys, [&](std::uint32_t t) {
    return gemm_charges(n, k, variant, rows_per_dpu, t, n_tasklets);
  });
}

} // namespace pimdnn::yolo
