// Persistent host worker pool — one set of threads for the whole process.
//
// Before this pool existed, every DpuSet::launch and every YOLOv3
// bias+leaky post-pass spawned and joined a fresh crop of std::threads:
// steady-state frames paid thread creation per layer, exactly the host
// churn the PrIM analysis (Gómez-Luna et al., arXiv:2105.03814) warns
// dominates end-to-end time on real UPMEM systems. HostPool replaces all
// of that with `hardware_threads() - 1` workers created once (counted in
// the obs counter `hostpool.threads_created`, which the frame-reuse bench
// asserts stays flat across warm launches) plus the submitting thread,
// which always participates. These workers are all of the host
// concurrency: the simulator owns no threads, and each DPU launch runs its
// tasklets on the one thread that claimed it.
//
// Two primitives:
//  * `submit` — run a closure asynchronously; the returned TaskHandle's
//    `wait()` *helps*: while the task is unfinished it pops and executes
//    other queued tasks, so a task may itself submit and wait (nested
//    parallel_for inside a pipelined frame driver) without deadlock, at
//    any worker count including zero.
//  * `parallel_for` — the dynamic atomic-claim loop the old per-launch
//    pools used (workers fetch_add the next index until exhausted), with
//    the caller claiming alongside the workers. Iterations must be
//    independent; the claim order is scheduling-dependent but the work per
//    index is not, so results are bit-identical to the serial loop. With
//    zero workers, n <= 1, or a body that cannot be split, it degrades to
//    the plain serial loop — the single fallback that replaces the
//    duplicated `n_threads <= 1` branches in dpu_set.cpp and network.cpp.
//
// Exceptions: the first exception a task or a parallel_for body throws is
// captured and rethrown on the waiting thread (further iterations stop
// claiming). Handles must not outlive their pool; the destructor drains
// still-queued tasks inline and joins every worker.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pimdnn::runtime {

/// Process-lifetime task pool (see file comment). `global()` is the one
/// instance production code shares; tests construct private pools to
/// exercise shutdown and worker-count edge cases.
class HostPool {
public:
  /// One queued unit of work. Internal, but its lifetime is shared with
  /// TaskHandle so a handle stays valid after the task ran.
  struct Task {
    std::function<void()> fn;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::exception_ptr error;
  };

  /// Waitable handle to one submitted task.
  class TaskHandle {
  public:
    TaskHandle() = default;

    /// True when the handle refers to a task (default-constructed handles
    /// do not).
    bool valid() const { return task_ != nullptr; }

    /// True once the task finished (never blocks).
    bool ready() const;

    /// Blocks until the task finished, executing other queued tasks while
    /// waiting. Rethrows the task's exception. Safe to call repeatedly.
    void wait();

  private:
    friend class HostPool;
    std::shared_ptr<Task> task_;
    HostPool* pool_ = nullptr;
  };

  /// Pool with hardware_threads() - 1 workers: the submitting thread is
  /// the remaining lane, since it always participates in parallel_for and
  /// helps while waiting.
  HostPool();

  /// Pool with exactly `n_workers` workers (0 = everything runs inline on
  /// the calling thread).
  explicit HostPool(std::uint32_t n_workers);

  /// Joins every worker; tasks still queued are executed inline first, so
  /// submitted work is never silently dropped.
  ~HostPool();

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  /// The process-wide pool, created on first use.
  static HostPool& global();

  /// Enqueues `fn` for asynchronous execution.
  TaskHandle submit(std::function<void()> fn);

  /// Runs body(0..n-1) across the workers plus the calling thread via a
  /// dynamic atomic-claim loop; returns when every index completed.
  /// Serial inline when n <= 1 or the pool has no workers.
  void parallel_for(std::uint32_t n,
                    const std::function<void(std::uint32_t)>& body);

  /// Worker threads owned by the pool (0 on single-core hosts).
  std::uint32_t workers() const {
    return static_cast<std::uint32_t>(workers_.size());
  }

private:
  void worker_loop();
  /// Runs `t`'s closure, captures its exception, marks it done.
  static void run_task(Task& t);
  /// Helps execute queued tasks until `t` is done.
  void help_until(const std::shared_ptr<Task>& t);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Task>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

} // namespace pimdnn::runtime
