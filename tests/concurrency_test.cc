// Concurrency contracts the telemetry work leans on (DESIGN.md §10/§11):
// the QuiesceGate must give an epoch writer priority over a steady stream
// of reader runs without ever letting it observe an in-flight run, and the
// ThreadPool destructor must drain queued tasks exactly once, in FIFO
// order, before joining. Parallel bench tasks must also hand their frames
// back to the shared images they ran on. Run these under the ASan preset
// too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/bench_runner/bench_runner.h"
#include "src/bench_runner/thread_pool.h"
#include "src/rerand/quiesce.h"

namespace krx {
namespace {

// Eight readers loop run scopes as fast as they can; a writer repeatedly
// takes the gate exclusively. Writer priority means the writer gets in
// despite the churn (a fair-readers lock would starve it), and exclusivity
// means it never coexists with an active run.
TEST(QuiesceGate, WriterPriorityUnderReaderChurn) {
  QuiesceGate gate;
  constexpr int kReaders = 8;
  constexpr int kEpochs = 50;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> runs{0};
  std::atomic<int> violations{0};
  std::atomic<int> in_run{0};  // readers inside their critical section
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        QuiesceRunScope scope(&gate);
        in_run.fetch_add(1, std::memory_order_relaxed);
        runs.fetch_add(1, std::memory_order_relaxed);
        in_run.fetch_sub(1, std::memory_order_relaxed);
      }
    });
  }

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int epochs_done = 0;
  for (; epochs_done < kEpochs && std::chrono::steady_clock::now() < deadline; ++epochs_done) {
    gate.BeginExclusive();
    // Exclusivity: no run may be active (or start) while we hold the gate.
    if (gate.active_runs() != 0 || in_run.load(std::memory_order_relaxed) != 0) {
      violations.fetch_add(1, std::memory_order_relaxed);
    }
    const uint64_t before = runs.load(std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (runs.load(std::memory_order_relaxed) != before ||
        in_run.load(std::memory_order_relaxed) != 0) {
      violations.fetch_add(1, std::memory_order_relaxed);
    }
    gate.EndExclusive();
  }
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(violations.load(), 0);
  // Writer priority: all epochs completed well inside the deadline even
  // though readers never paused.
  EXPECT_EQ(epochs_done, kEpochs) << "writer starved by reader churn";
  EXPECT_GT(runs.load(), 0u) << "readers never ran; the test proved nothing";
}

// A second writer must also drain cleanly while readers churn (two epoch
// sources — e.g. timer + disclosure trigger — must not deadlock).
TEST(QuiesceGate, TwoWritersInterleaveWithReaders) {
  QuiesceGate gate;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        QuiesceRunScope scope(&gate);
      }
    });
  }
  std::atomic<int> epochs{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        gate.BeginExclusive();
        EXPECT_EQ(gate.active_runs(), 0u);
        epochs.fetch_add(1, std::memory_order_relaxed);
        gate.EndExclusive();
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(epochs.load(), 40);
}

// Destroying the pool with work still queued must run every task exactly
// once before the workers join — shutdown drains, it does not discard.
TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> ran(kTasks);
  for (auto& r : ran) {
    r.store(0);
  }
  {
    ThreadPool pool(4);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&ran, i] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ran[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No Wait(): the destructor itself is on the hook for the backlog.
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(ran[static_cast<size_t>(i)].load(), 1) << "task " << i;
  }
}

// With one worker the queue is strictly FIFO, and that order must survive
// a shutdown-while-queued drain.
TEST(ThreadPool, SingleWorkerDrainsInFifoOrder) {
  std::vector<int> order;
  std::mutex mu;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&order, &mu, i] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      });
    }
  }
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

// Wait() returns only after in-flight tasks finish, and the pool remains
// usable for another batch afterwards.
TEST(ThreadPool, WaitBlocksUntilIdleAndPoolIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.Wait();
    EXPECT_EQ(done.load(), 16 * (batch + 1));
  }
}

// Every bench task builds a Cpu (its kernel stack) and workload buffers on
// the shared cached image of its config. Ten passes of the same matrix on
// four threads must leave each shared image exactly as many frames as the
// first pass did, and compute the same thing every time.
TEST(FrameOwnership, BenchRunnerPassesKeepSharedImagesFlat) {
  const std::vector<std::string> configs = {"vanilla", "sfi-o3", "sfi-o4"};
  BenchRunnerOptions options;
  options.threads = 4;
  KernelCache cache(MakeBenchSourceFactory(options.seed));
  BenchRunner runner(options, &cache);
  const std::vector<BenchTask> tasks = MakeBenchMatrix(configs, 4, 1, false);

  auto shared_frames = [&] {
    std::vector<uint64_t> frames;
    for (const std::string& config : configs) {
      TenantSpec spec;
      spec.config_name = config;
      auto build = spec.ResolveBuildOptions(options.seed);
      KRX_CHECK(build.ok());
      auto kernel = cache.Acquire(*build, Sharing::kShared);
      KRX_CHECK(kernel.ok());
      frames.push_back((*kernel)->image->phys().frames_allocated());
    }
    return frames;
  };

  std::vector<uint64_t> first_checksums;
  std::vector<uint64_t> first_frames;
  for (int pass = 0; pass < 10; ++pass) {
    std::vector<uint64_t> checksums;
    for (const TaskResult& r : runner.Run(tasks)) {
      ASSERT_TRUE(r.ok) << "pass " << pass << ": " << r.name << ": " << r.error;
      checksums.push_back(r.rax_checksum);
    }
    if (pass == 0) {
      first_checksums = checksums;
      first_frames = shared_frames();
    } else {
      EXPECT_EQ(checksums, first_checksums) << "pass " << pass;
    }
  }
  EXPECT_EQ(shared_frames(), first_frames);
}

}  // namespace
}  // namespace krx
