#include "runtime/host_pool.hpp"

#include <atomic>

#include "common/concurrency.hpp"
#include "obs/metrics.hpp"

namespace pimdnn::runtime {

bool HostPool::TaskHandle::ready() const {
  if (task_ == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lk(task_->mu);
  return task_->done;
}

void HostPool::TaskHandle::wait() {
  if (task_ == nullptr) {
    return;
  }
  pool_->help_until(task_);
  if (task_->error != nullptr) {
    std::rethrow_exception(task_->error);
  }
}

HostPool::HostPool() : HostPool(hardware_threads() - 1) {}

HostPool::HostPool(std::uint32_t n_workers) {
  workers_.reserve(n_workers);
  for (std::uint32_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (n_workers > 0) {
    obs::Metrics::instance().add("hostpool.threads_created", n_workers);
  }
}

HostPool::~HostPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
  // Zero-worker pools (and the window between notify and join) can leave
  // queued tasks behind: run them inline so a submit is never dropped.
  while (!queue_.empty()) {
    std::shared_ptr<Task> t = std::move(queue_.front());
    queue_.pop_front();
    run_task(*t);
  }
}

HostPool& HostPool::global() {
  static HostPool pool;
  return pool;
}

HostPool::TaskHandle HostPool::submit(std::function<void()> fn) {
  auto task = std::make_shared<Task>();
  task->fn = std::move(fn);
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(task);
  }
  cv_.notify_one();
  obs::Metrics::instance().add("hostpool.tasks");
  TaskHandle h;
  h.task_ = std::move(task);
  h.pool_ = this;
  return h;
}

void HostPool::run_task(Task& t) {
  try {
    t.fn();
  } catch (...) {
    t.error = std::current_exception();
  }
  t.fn = nullptr; // release captures before signaling completion
  {
    std::lock_guard<std::mutex> lk(t.mu);
    t.done = true;
  }
  t.cv.notify_all();
}

void HostPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Task> t;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return; // stop requested and the queue is drained
      }
      t = std::move(queue_.front());
      queue_.pop_front();
    }
    run_task(*t);
  }
}

void HostPool::help_until(const std::shared_ptr<Task>& t) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(t->mu);
      if (t->done) {
        return;
      }
    }
    // Not done: pop any queued task (possibly t itself) and execute it
    // here — the waiting thread is a lane, not a spectator.
    std::shared_ptr<Task> next;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!queue_.empty()) {
        next = std::move(queue_.front());
        queue_.pop_front();
      }
    }
    if (next != nullptr) {
      run_task(*next);
      continue;
    }
    // Queue empty and t not done: a worker is running it. Block until it
    // signals (with zero workers this branch is unreachable — the loop
    // above would have popped t).
    std::unique_lock<std::mutex> lk(t->mu);
    t->cv.wait(lk, [&] { return t->done; });
    return;
  }
}

void HostPool::parallel_for(
    std::uint32_t n, const std::function<void(std::uint32_t)>& body) {
  if (n == 0) {
    return;
  }
  const std::uint32_t helpers =
      std::min<std::uint32_t>(workers(), n > 0 ? n - 1 : 0);
  if (helpers == 0) {
    for (std::uint32_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }

  struct ParState {
    std::atomic<std::uint32_t> next{0};
    std::mutex mu;
    std::exception_ptr error;
  };
  auto st = std::make_shared<ParState>();
  // The same dynamic claim loop the per-launch pools used: each lane
  // fetch_adds the next index, so the schedule adapts to imbalance and the
  // per-index work (hence the result) is independent of which lane ran it.
  const auto claim = [st, &body, n] {
    for (std::uint32_t i = st->next.fetch_add(1); i < n;
         i = st->next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(st->mu);
        if (st->error == nullptr) {
          st->error = std::current_exception();
        }
        st->next.store(n); // stop claiming; in-flight indices finish
      }
    }
  };

  std::vector<TaskHandle> handles;
  handles.reserve(helpers);
  for (std::uint32_t h = 0; h < helpers; ++h) {
    handles.push_back(submit(claim));
  }
  claim(); // the caller is a lane too
  for (TaskHandle& h : handles) {
    h.wait(); // claim() itself never throws; errors land in st->error
  }
  if (st->error != nullptr) {
    std::rethrow_exception(st->error);
  }
}

} // namespace pimdnn::runtime
