// Generic data-parallel offload framework.
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
// The kernel author supplies only the per-item computation, written
// against TaskletCtx like any other DPU kernel. The host choreography
// itself (program caching, padded scatter, true-count metadata, batched
// gather, host-overhead accounting) is one runtime::KernelSession over the
// offloader's persistent pool, shared with the eBNN and YOLOv3 pipelines.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "map/mapper.hpp"
#include "obs/timeline.hpp"
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

/// Result of an offloaded run.
struct OffloadResult {
  /// Per-item outputs, in submission order.
  std::vector<std::vector<std::uint8_t>> outputs;
  /// Aggregate launch statistics; `launch.host` carries this batch's
  /// host-side overhead (loads, scatter, gather).
  runtime::LaunchStats launch;
  /// DPUs used (total across sub-launches when split).
  std::uint32_t dpus_used = 0;
  /// Sub-launches the batch was carved into (1 = the unsplit executor; >1
  /// when the mapper chose a dual-bank split plan).
  std::uint32_t split = 1;
};

/// Result of a double-buffered multi-batch run.
struct OffloadPipelineResult {
  /// Per-batch results, bit-identical to serial `run` calls.
  std::vector<OffloadResult> batches;
  /// Modeled overlapped timeline vs. the serial equivalent.
  runtime::PipelineStats pipeline;
  /// Independent reconstruction from the emitted `pipe.stage` spans;
  /// present only when tracing was enabled for the run.
  std::optional<obs::TimelineReport> timeline;
};

/// The offload engine. Construct once per (spec, kernel) pair, run many
/// batches: the engine owns a persistent DpuPool, so the program is loaded
/// once and the broadcast constants are uploaded once — later batches pay
/// only for their inputs and outputs (a batch needing more DPUs than any
/// before it grows the pool and re-uploads).
class Offloader {
public:
  /// Validates the spec (capacities, transfer limits) and builds the DPU
  /// program. Throws ConfigError/CapacityError on impossible mappings.
  Offloader(WorkloadSpec spec, ItemKernel kernel,
            const runtime::UpmemConfig& sys = sim::default_config());

  /// Processes a batch of items (each exactly item_in_bytes long).
  /// `n_tasklets` defaults to the `map::Mapper` sentinel: items-per-DPU
  /// and tasklets come from the cost-model search when the spec has a
  /// kernel_cost hook (the paper mapping otherwise); an explicit count
  /// pins the spec's items_per_dpu with that many tasklets.
  OffloadResult run(const std::vector<std::vector<std::uint8_t>>& items,
                    std::uint32_t n_tasklets = map::kAutoTasklets,
                    runtime::OptLevel opt = runtime::OptLevel::O3);

  /// Processes `batches` double-buffered over two bank pools: batch i runs
  /// on bank i%2 and its scatter overlaps the other bank's in-flight
  /// kernel (KernelSession::launch_async). At most two batches are in
  /// flight; results are bit-identical to serial `run` calls on the same
  /// inputs. The returned PipelineStats hold the modeled overlapped
  /// makespan vs. the serial equivalent.
  OffloadPipelineResult run_pipelined(
      const std::vector<std::vector<std::vector<std::uint8_t>>>& batches,
      std::uint32_t n_tasklets = map::kAutoTasklets,
      runtime::OptLevel opt = runtime::OptLevel::O3);

  /// MRAM stride of one input slot (8-byte aligned item_in_bytes).
  MemSize in_stride() const { return in_stride_; }

  /// MRAM stride of one output slot.
  MemSize out_stride() const { return out_stride_; }

  /// Cumulative host-side accounting across every batch run so far.
  sim::HostXferStats host_stats() const { return banks_.host_stats(); }

private:
  using Items = std::vector<std::vector<std::uint8_t>>;

  sim::DpuProgram build_program() const;
  /// CPU-path fallback for a degraded chunk: runs the same kernel on one
  /// spare private DPU, `per_dpu` items at a time, over items
  /// [first, first + count) — bit-identical to the pooled run — appending
  /// the outputs to `outputs`.
  void run_host_fallback(const Items& items, std::size_t first,
                         std::size_t count, std::uint32_t per_dpu,
                         std::uint32_t n_tasklets, runtime::OptLevel opt,
                         Items& outputs) const;
  /// The plan request: resolves the (items_per_dpu, tasklets, split)
  /// mapping for `items` against `pool`'s health picture (a lone batch may
  /// split across both banks) and returns the job that runs it into `out`.
  runtime::Job plan_job(const Items& items, OffloadResult& out,
                        runtime::DpuPool& pool, bool may_split,
                        std::uint32_t n_tasklets, runtime::OptLevel opt);
  runtime::Started start_batch(const runtime::Chunk& c, const Items& items,
                               const map::MappingPlan& plan,
                               runtime::OptLevel opt);
  void finish_batch(const runtime::Chunk& c, runtime::Started& started,
                    const Items& items, const map::MappingPlan& plan,
                    runtime::OptLevel opt, OffloadResult& out);

  WorkloadSpec spec_;
  ItemKernel kernel_;
  runtime::UpmemConfig sys_;
  MemSize in_stride_;
  MemSize out_stride_;
  runtime::BankedExecutor banks_;
};

} // namespace pimdnn::core
