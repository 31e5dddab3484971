// Generic data-parallel offload framework: the many-items-per-DPU engine.
//
// The thesis closes by observing that porting a CNN required doing "the
// separation of the data-centric portion of the code ..., compilation ...
// and sending of memory between the host and DPUs ... all manually" and
// calls for "a programming standard/methodology or tool that takes care of
// the programming side of using UPMEM's PIM system" (§6.1). This module is
// that tool for the mapping pattern both CNN ports use: N independent
// items, each with fixed-size input and output buffers, processed by a
// kernel with one tasklet per item slot.
//
// The offloader handles everything the thesis did by hand:
//   * computing the DPU count from the items-per-DPU capacity,
//   * placing per-item input/output slots in MRAM with 8-byte strides,
//   * building padded staging buffers and issuing the scatter transfers,
//   * communicating the true (unpadded) item count to each DPU,
//   * launching all DPUs in parallel and gathering results in item order.
//
// A client describes its batch program once (BatchProgram) and binds two
// hooks to each batch (BatchHooks): its host tail over the gathered output
// slots and its CPU fallback for a degraded chunk. The tail runs on the
// host pool, kTailBlock items per call, so it writes only its items' slots
// of a result the binder sized. The eBNN hosts are clients, and so is the
// item-kernel path, where the kernel author writes only the per-item
// computation against TaskletCtx. Each chunk is one runtime::KernelSession
// over the offloader's persistent two-bank pool.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "map/mapper.hpp"
#include "runtime/banked_executor.hpp"
#include "runtime/dpu_set.hpp"
#include "runtime/pipeline.hpp"

namespace pimdnn::core {

/// Description of a data-parallel workload.
struct WorkloadSpec {
  std::string name = "offload"; ///< program name (diagnostics)
  /// Bytes of input per item (will be placed at an 8-byte-aligned stride).
  MemSize item_in_bytes = 0;
  /// Bytes of output per item.
  MemSize item_out_bytes = 0;
  /// Items a single DPU processes (the eBNN mapping used 16). Bounded by
  /// WRAM/MRAM capacity; validated at program build.
  std::uint32_t items_per_dpu = 16;
  /// Extra WRAM scratch per tasklet, available to the kernel as "scratch".
  MemSize scratch_bytes_per_tasklet = 0;
  /// Broadcast constant data (weights/LUTs), available as "consts".
  std::vector<std::uint8_t> consts;
  /// Estimated code footprint checked against the 24 KB IRAM.
  MemSize iram_bytes = 4096;
  /// Optional kernel-cost hook for `map::Mapper`'s auto search: prices the
  /// fullest DPU's kernel wall under (items, tasklets). Null means no
  /// estimator — auto-sentinel runs then keep the paper mapping (fill
  /// items_per_dpu, one tasklet per item slot) instead of searching.
  map::BatchKernelCost kernel_cost;
};

/// Context handed to the per-item kernel.
struct ItemCtx {
  sim::TaskletCtx& ctx;      ///< the tasklet context (cycle charging)
  const std::uint8_t* input; ///< this item's input, staged in WRAM
  std::uint8_t* output;      ///< this item's output buffer (WRAM)
  std::uint8_t* scratch;     ///< per-tasklet scratch (may be null)
  const std::uint8_t* consts; ///< broadcast constants (may be null)
  std::uint64_t item_index;  ///< global item index
};

/// Per-item kernel: read `input`, write `output`, charge cycles via `ctx`.
using ItemKernel = std::function<void(ItemCtx&)>;

/// What every batch result carries, whichever client ran it.
struct BatchStats {
  /// Aggregate launch statistics; `launch.host` carries this batch's
  /// host-side overhead (loads, scatter, gather).
  runtime::LaunchStats launch;
  /// DPUs used (total across sub-launches when split).
  std::uint32_t dpus_used = 0;
  /// Measured host tail of this batch (the client's tail over the gathered
  /// outputs; its CPU fallback on a degraded chunk).
  Seconds host_tail_seconds = 0.0;
  /// Sub-launches the batch was carved into (1 = the unsplit executor; >1
  /// when the mapper chose a dual-bank split plan).
  std::uint32_t split = 1;
  /// Items per DPU of the batch's mapping plan.
  std::uint32_t items_per_dpu = 0;
};

/// Result of an offloaded run.
struct OffloadResult : BatchStats {
  /// Per-item outputs, in submission order.
  std::vector<std::vector<std::uint8_t>> outputs;
};

/// Items one tail call covers: the engine runs a chunk's tail as blocks
/// of this many items (the last may be shorter) on the host pool.
inline constexpr std::size_t kTailBlock = 32;

/// Result of a double-buffered multi-batch run.
template <class Batch>
struct PipelineResult {
  /// Per-batch results, bit-identical to serial `run` calls.
  std::vector<Batch> batches;
  /// Modeled overlapped timeline vs. the serial equivalent, and its
  /// lane attribution.
  runtime::PipelineStats pipeline;
};

using OffloadPipelineResult = PipelineResult<OffloadResult>;

/// A client's batch program: `capacity` fixed-size items per DPU in MRAM
/// slots, the true per-DPU count in the u64 WRAM symbol "meta".
struct BatchProgram {
  std::string signature;                  ///< program-cache key
  std::function<sim::DpuProgram()> build; ///< builds the DPU program
  std::string pipeline; ///< span and SLO series prefix
  std::uint32_t capacity = 1;
  MemSize item_bytes = 0; ///< input bytes per item
  MemSize in_stride = 0;
  MemSize out_stride = 0;
  std::string in_symbol;
  std::string out_symbol;
  /// WRAM constants as (symbol, unpadded bytes), broadcast in order.
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> consts;
  /// Kernel wall of the fullest DPU under (items, tasklets, opt), for the
  /// mapper's search; null keeps the paper mapping.
  std::function<Cycles(std::uint32_t, std::uint32_t, runtime::OptLevel)>
      kernel_cost;
};

/// A client's two hooks, bound to one batch run under `plan`, each over
/// the batch items [first, first + count). Both write only those items'
/// entries of the result, which the binder sized for the whole batch; the
/// engine times them as each chunk's host stage.
struct BatchHooks {
  /// Host tail over the items' gathered output slots, item first + k's at
  /// `slots + k * out_stride`. The engine calls it for blocks of at most
  /// kTailBlock items, concurrently on the host pool, so a tail writes no
  /// state another block reads or writes; scratch is its own.
  std::function<void(const map::MappingPlan& plan, std::size_t first,
                     std::size_t count, const std::uint8_t* slots)>
      tail;
  /// CPU path of a degraded chunk's items, bit-identical to the kernel +
  /// tail; the engine calls it once per degraded chunk.
  std::function<void(const map::MappingPlan& plan, std::size_t first,
                     std::size_t count)>
      fallback;
};

/// The batch engine. Construct once per program, run many batches: the
/// engine owns a persistent two-bank pool, so the program is loaded once
/// and the broadcast constants are uploaded once — later batches pay only
/// for their inputs and outputs (a batch needing more DPUs than any before
/// it grows the pool and re-uploads).
class Offloader {
public:
  using Items = std::vector<std::vector<std::uint8_t>>;
  /// Binds a client's hooks to one batch's items and result, and sizes
  /// the result's per-item outputs for every item.
  template <class Result>
  using Bind = std::function<BatchHooks(const Items& items, Result& out)>;

  /// The engine for a client's program.
  explicit Offloader(BatchProgram program,
                     const runtime::UpmemConfig& sys = sim::default_config());

  /// The item-kernel client: validates the spec (capacities, transfer
  /// limits) and builds the DPU program. Throws ConfigError/CapacityError
  /// on impossible mappings.
  Offloader(WorkloadSpec spec, ItemKernel kernel,
            const runtime::UpmemConfig& sys = sim::default_config());

  /// Processes a batch of items (each exactly item_in_bytes long).
  /// `n_tasklets` defaults to the `map::Mapper` sentinel: items-per-DPU
  /// and tasklets come from the cost-model search when the spec has a
  /// kernel_cost hook (the paper mapping otherwise); an explicit count
  /// pins the spec's items_per_dpu with that many tasklets.
  OffloadResult run(const Items& items,
                    std::uint32_t n_tasklets = map::kAutoTasklets,
                    runtime::OptLevel opt = runtime::OptLevel::O3) {
    return run(items, item_hooks(opt), n_tasklets, opt);
  }

  /// Processes `batches` double-buffered over two bank pools: batch i runs
  /// on bank i%2 and its scatter overlaps the other bank's in-flight
  /// kernel (KernelSession::launch_async). At most two batches are in
  /// flight; results are bit-identical to serial `run` calls on the same
  /// inputs. The returned PipelineStats hold the modeled overlapped
  /// makespan vs. the serial equivalent.
  OffloadPipelineResult run_pipelined(
      const std::vector<Items>& batches,
      std::uint32_t n_tasklets = map::kAutoTasklets,
      runtime::OptLevel opt = runtime::OptLevel::O3) {
    return run_pipelined(batches, item_hooks(opt), n_tasklets, opt);
  }

  /// A client's `run`, with the hooks `bind` returns for the batch (a lone
  /// batch may split across both banks).
  template <class Result>
  Result run(const Items& items, const Bind<Result>& bind,
             std::uint32_t n_tasklets, runtime::OptLevel opt) {
    Result out;
    run_batches({{&items, &out, bind(items, out)}}, n_tasklets, opt, false);
    return out;
  }

  /// A client's `run_pipelined`, with the hooks `bind` returns per batch.
  template <class Result>
  PipelineResult<Result> run_pipelined(const std::vector<Items>& batches,
                                       const Bind<Result>& bind,
                                       std::uint32_t n_tasklets,
                                       runtime::OptLevel opt) {
    PipelineResult<Result> out;
    out.batches.resize(batches.size());
    std::vector<Batch> bound;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      bound.push_back({&batches[i], &out.batches[i],
                       bind(batches[i], out.batches[i])});
    }
    out.pipeline = run_batches(bound, n_tasklets, opt, true);
    return out;
  }

  /// MRAM stride of one input slot (8-byte aligned item_in_bytes).
  MemSize in_stride() const { return program_.in_stride; }

  /// MRAM stride of one output slot.
  MemSize out_stride() const { return program_.out_stride; }

  /// Cumulative host-side accounting across every batch run so far.
  sim::HostXferStats host_stats() const { return banks_.host_stats(); }

private:
  /// One batch bound to its result and its client's hooks.
  struct Batch {
    const Items* items;
    BatchStats* out;
    BatchHooks hooks;
  };

  /// Runs `batches` through the bank ring. Unless `pipelined`, a lone
  /// batch under its "<pipeline>.batch" span; otherwise pipelined, with
  /// the modeled timeline and the "<pipeline>.pipeline" closing block.
  runtime::PipelineStats run_batches(const std::vector<Batch>& batches,
                                     std::uint32_t n_tasklets,
                                     runtime::OptLevel opt, bool pipelined);
  /// The plan request: checks the batch, resolves the (items_per_dpu,
  /// tasklets, split) mapping against `pool`'s health picture and returns
  /// the job that runs it.
  runtime::Job plan_job(const Batch& b, runtime::DpuPool& pool,
                        bool may_split, std::uint32_t n_tasklets,
                        runtime::OptLevel opt);
  /// Constants + scatter + async launch of the items chunk `c` covers;
  /// the to-DPU + load walls are the chunk's transfer stage.
  runtime::Started start_batch(const runtime::Chunk& c, const Items& items,
                               const map::MappingPlan& plan,
                               runtime::OptLevel opt);
  /// Waits for the launch, gathers and runs the client's tail in
  /// kTailBlock blocks on the host pool (or its fallback on a degraded
  /// launch), reporting kernel, gather and tail as the chunk's stages.
  void finish_batch(const runtime::Chunk& c, runtime::Started& started,
                    const Batch& b, const map::MappingPlan& plan);
  /// The item-kernel client's hooks: copy each output out of its slot
  /// into its pre-sized entry, or run the program on one spare private
  /// DPU, `per_dpu` items at a time.
  Bind<OffloadResult> item_hooks(runtime::OptLevel opt) const;

  BatchProgram program_;
  runtime::UpmemConfig sys_;
  MemSize item_out_bytes_ = 0; ///< the item-kernel client's output size
  runtime::BankedExecutor banks_;
};

} // namespace pimdnn::core
