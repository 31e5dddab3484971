// The metrics pimbench prints: name, unit, clock, direction and — for the
// per-layer metrics — which end-to-end metric each should move on which
// workload. BENCHMARK.json lists the same names, units and directions
// (pimbench_tests holds the two in step).
//
// Clocks:
//   sim   simulated DPU cycles at 350 MHz; deterministic for a fixed seed
//   host  measured wall time of the simulator process
//   mixed runtime::PipelineModel makespan: simulated kernels plus measured
//         host compute and memcpy-timed transfers
//   -     a count or ratio of events, no clock
#pragma once

namespace pimbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* clock;
  const char* better; ///< "higher" or "lower"
  /// End-to-end metrics: what the value means. Per-layer metrics: the
  /// end-to-end metric it should move, and on which workloads.
  const char* note;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"sim_items_per_s", "items/s", "host", "higher",
     "items completed per host second over the timed calls"},
    {"host_p50_s", "s", "host", "lower", "median host wall per call"},
    {"host_tail_s", "s", "host", "lower",
     "host wall per call at the highest percentile with >=10 calls beyond"},
    {"device_s_per_item", "sim_s", "sim", "lower",
     "summed launch wall cycles / 350 MHz per item (the paper's latency)"},
    {"modeled_s_per_item", "mixed_s", "mixed", "lower",
     "PipelineModel makespan (frame_wall_seconds when synchronous) per item"},
    {"peak_rss_mb", "MB", "host", "lower",
     "peak resident memory of the workload process"},
    {"setup_s", "s", "host", "lower",
     "median of constructing the host/runner plus its cold first call"},
    {"dpu_served_frac", "frac", "-", "higher",
     "items none of whose launches fell back to the CPU, over items"},
};

inline constexpr MetricSpec kPerLayer[] = {
    // sim
    {"sim.host_s_per_item", "s", "host", "lower",
     "sim_items_per_s, host_p50_s on yolo_tiny_frame, yolo_lite_stream "
     "(less on ebnn_paper_scale)"},
    {"sim.launches_per_item", "count", "-", "lower",
     "sim_items_per_s, host_p50_s on all workloads"},
    {"sim.fast_frac", "frac", "-", "higher",
     "host_p50_s on the YOLO workloads once barrier programs run fast"},
    {"sim.dpu_cycles_per_item", "cycles", "sim", "lower",
     "device_s_per_item on yolo_lite_stream (low-M layers) and all others"},
    {"sim.dma_bytes_per_item", "B", "sim", "lower",
     "device_s_per_item on yolo_lite_stream and all others"},
    {"sim.imbalance", "ratio", "sim", "lower",
     "device_s_per_item on yolo_lite_stream"},
    {"sim.active_dpu_frac", "frac", "-", "higher",
     "device_s_per_item on yolo_lite_stream"},
    // runtime: transfers and session
    {"runtime.bytes_to_dpu_per_item", "B", "-", "lower",
     "peak_rss_mb, modeled_s_per_item on yolo_lite_stream, yolo_tiny_frame"},
    {"runtime.bytes_from_dpu_per_item", "B", "-", "lower",
     "peak_rss_mb, modeled_s_per_item on yolo_lite_stream, yolo_tiny_frame"},
    {"runtime.xfer_host_s_per_item", "s", "host", "lower",
     "modeled_s_per_item on ebnn_paper_scale"},
    {"runtime.broadcast_s_per_item", "s", "host", "lower",
     "host_p50_s on yolo_tiny_frame"},
    {"runtime.scatter_s_per_item", "s", "host", "lower",
     "host_p50_s on yolo_tiny_frame"},
    {"runtime.gather_s_per_item", "s", "host", "lower",
     "host_p50_s on yolo_tiny_frame"},
    {"runtime.program_load_s_per_item", "s", "host", "lower",
     "host_p50_s on yolo_tiny_frame"},
    // runtime: pool
    {"runtime.activation_hit_ratio", "frac", "-", "higher",
     "host_p50_s, setup_s on the YOLO workloads"},
    {"runtime.resident_hit_ratio", "frac", "-", "higher",
     "host_p50_s, setup_s on the YOLO workloads"},
    {"runtime.arena_hit_ratio", "frac", "-", "higher",
     "host_p50_s, setup_s on the YOLO workloads"},
    {"runtime.threads_created_warm", "count", "-", "lower",
     "host_p50_s on all workloads; must stay 0"},
    // runtime: pipeline
    {"runtime.pipeline_overlap", "frac", "mixed", "higher",
     "modeled_s_per_item: cross-item on yolo_lite_stream, ebnn_paper_scale; "
     "split on yolo_tiny_frame"},
    {"runtime.host_lane_s_per_item", "s", "host", "lower",
     "modeled_s_per_item on all workloads"},
    {"runtime.dpu_lane_s_per_item", "sim_s", "sim", "lower",
     "modeled_s_per_item on all workloads"},
    // runtime: health (0 outside yolo_lite_faulty)
    {"runtime.health.retries_per_item", "count", "-", "lower",
     "dpu_served_frac, device_s_per_item, host_p50_s on yolo_lite_faulty"},
    {"runtime.health.faults_absorbed_per_item", "count", "-", "higher",
     "dpu_served_frac on yolo_lite_faulty"},
    {"runtime.health.quarantined_per_item", "count", "-", "lower",
     "device_s_per_item on yolo_lite_faulty"},
    {"runtime.health.fallback_launch_frac", "frac", "-", "lower",
     "dpu_served_frac, host_p50_s on yolo_lite_faulty"},
    {"runtime.health.scrub_repaired_per_item", "count", "-", "higher",
     "dpu_served_frac on yolo_lite_faulty"},
    {"runtime.health.reintegrated_per_item", "count", "-", "higher",
     "device_s_per_item on yolo_lite_faulty"},
    {"runtime.health.breaker_open_per_item", "count", "-", "lower",
     "dpu_served_frac, host_p50_s on yolo_lite_faulty"},
    // map
    {"map.plan_s", "s", "host", "lower", "setup_s on all workloads"},
    {"map.plan_hit_ratio", "frac", "-", "higher",
     "host_p50_s on the YOLO workloads"},
    {"map.split_frac", "frac", "-", "higher",
     "modeled_s_per_item, device_s_per_item on yolo_tiny_frame"},
    {"map.dpus_per_launch", "count", "-", "higher",
     "modeled_s_per_item, device_s_per_item on yolo_tiny_frame"},
    {"map.kernel_pred_err", "frac", "sim", "lower",
     "accuracy of the mapper's kernel prediction (0 today)"},
    {"map.makespan_pred_err", "frac", "mixed", "lower",
     "accuracy of the mapper's makespan prediction on all workloads"},
    // yolo / nn, ebnn
    {"yolo.host_compute_s_per_item", "s", "host", "lower",
     "modeled_s_per_item on the YOLO workloads (0 on eBNN)"},
    {"ebnn.host_tail_s_per_item", "s", "host", "lower",
     "modeled_s_per_item, host_p50_s on ebnn_paper_scale"},
    // obs and the benchmark itself
    {"obs.trace_overhead", "ratio", "host", "lower",
     "traced / untraced host_p50_s"},
    {"obs.trace_dropped", "count", "-", "lower", "spans dropped; must be 0"},
    {"bench.verify_s", "s", "host", "lower",
     "golden-model check time, excluded from every timed metric"},
};

} // namespace pimbench
