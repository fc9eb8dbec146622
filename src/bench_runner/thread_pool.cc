#include "src/bench_runner/thread_pool.h"

#include <algorithm>
#include <string>

#include "src/telemetry/telemetry.h"

namespace krx {
namespace {
thread_local int t_worker_index = -1;
}  // namespace

int ThreadPool::CurrentWorkerIndex() { return t_worker_index; }

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(threads, 1);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] {
      t_worker_index = i;
      // Only materialize (and label) this thread's trace ring when tracing
      // is actually on — naming allocates the ring.
      if (telemetry::TraceEnabled()) {
        telemetry::SetThreadName("worker-" + std::to_string(i));
      }
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and nothing left to run
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

}  // namespace krx
