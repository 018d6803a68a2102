#include "util/parallel.h"

#include <atomic>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace crowdtruth::util {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> visits(100);
  ParallelFor(100, 4, [&](int i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, SingleThreadRunsInline) {
  std::vector<int> order;
  ParallelFor(5, 1, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  bool called = false;
  ParallelFor(0, 4, [&](int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ResultsIndependentOfThreadCount) {
  auto compute = [](int threads) {
    std::vector<double> out(64);
    ParallelFor(64, threads, [&](int i) { out[i] = i * 1.5 + 1.0; });
    return out;
  };
  EXPECT_EQ(compute(1), compute(7));
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> visits(3);
  ParallelFor(3, 16, [&](int i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForSlottedTest, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> visits(100);
  ParallelForSlotted(100, 4, [&](int i, int) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForSlottedTest, SlotsStayWithinPoolWidth) {
  constexpr int kThreads = 4;
  std::atomic<bool> out_of_range{false};
  ParallelForSlotted(200, kThreads, [&](int, int slot) {
    if (slot < 0 || slot >= kThreads) out_of_range.store(true);
  });
  EXPECT_FALSE(out_of_range.load());
}

TEST(ParallelForSlottedTest, SingleThreadRunsInlineOnSlotZero) {
  std::vector<int> order;
  ParallelForSlotted(5, 1, [&](int i, int slot) {
    EXPECT_EQ(slot, 0);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForSlottedTest, ZeroCountIsNoop) {
  bool called = false;
  ParallelForSlotted(0, 4, [&](int, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForSlottedTest, SlotScratchPartitionsWrites) {
  // The intended usage: each slot owns a scratch accumulator and no two
  // concurrent invocations share one. Summing the per-slot accumulators
  // must reproduce the serial total exactly.
  constexpr int kThreads = 4;
  constexpr int kCount = 1000;
  std::vector<long long> scratch(kThreads, 0);
  ParallelForSlotted(kCount, kThreads,
                     [&](int i, int slot) { scratch[slot] += i; });
  const long long total =
      std::accumulate(scratch.begin(), scratch.end(), 0LL);
  EXPECT_EQ(total, static_cast<long long>(kCount) * (kCount - 1) / 2);
}

TEST(ParallelForSlottedTest, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> visits(3);
  ParallelForSlotted(3, 16, [&](int i, int) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForSlottedTest, RepeatedRegionsReuseThePool) {
  // The EM driver issues many short regions per inference; exercise that
  // pattern against the persistent pool.
  std::vector<std::atomic<int>> visits(32);
  for (int round = 0; round < 50; ++round) {
    ParallelForSlotted(32, 3, [&](int i, int) { visits[i].fetch_add(1); });
  }
  for (const auto& v : visits) EXPECT_EQ(v.load(), 50);
}

TEST(ParallelForSlottedTest, NestedRegionsRunInlineOnTheCallingWorker) {
  // A shard barrier's per-shard task reaches the EM kernel, which opens a
  // region of its own while the pool is busy with the barrier's. The
  // inner region must run inline on the worker that opens it, slots
  // numbered from 0 again, and compute exactly what it computes alone.
  constexpr int kOuter = 8;
  constexpr int kInner = 100;
  std::vector<std::vector<long long>> nested(kOuter);
  std::vector<std::atomic<int>> outer_visits(kOuter);
  std::atomic<bool> moved_thread{false};
  std::atomic<bool> inner_slot_nonzero{false};
  ParallelForSlotted(kOuter, 4, [&](int i, int) {
    outer_visits[i].fetch_add(1);
    const std::thread::id owner = std::this_thread::get_id();
    std::vector<long long> scratch(4, 0);  // per-slot, owned by this call
    std::vector<long long>& out = nested[i];
    out.assign(kInner, 0);
    ParallelForSlotted(kInner, 4, [&](int j, int slot) {
      if (std::this_thread::get_id() != owner) moved_thread.store(true);
      if (slot != 0) inner_slot_nonzero.store(true);
      scratch[slot] += j;
      out[j] = static_cast<long long>(i) * 1000 + j;
    });
    out.push_back(std::accumulate(scratch.begin(), scratch.end(), 0LL));
  });
  for (const auto& v : outer_visits) EXPECT_EQ(v.load(), 1);
  EXPECT_FALSE(moved_thread.load());
  EXPECT_FALSE(inner_slot_nonzero.load());
  for (int i = 0; i < kOuter; ++i) {
    ASSERT_EQ(nested[i].size(), static_cast<size_t>(kInner) + 1);
    for (int j = 0; j < kInner; ++j) {
      EXPECT_EQ(nested[i][j], static_cast<long long>(i) * 1000 + j);
    }
    EXPECT_EQ(nested[i][kInner], kInner * (kInner - 1) / 2);
  }
  // The pool is free again: a top-level region after the nested ones
  // still fans out and visits everything.
  std::vector<std::atomic<int>> visits(64);
  ParallelForSlotted(64, 4, [&](int i, int) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

// The background solver runs its jobs one at a time in submission order,
// on one thread that is not the submitter's. A job withdrawn while still
// queued never runs, and releases what it captured at once.
TEST(BackgroundSolverTest, RunsJobsInFifoOrderAndSkipsWithdrawnOnes) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::mutex mutex;
  std::vector<int> order;
  std::vector<std::thread::id> threads;
  auto job = [&](int id) {
    return [&, id] {
      const std::lock_guard<std::mutex> lock(mutex);
      order.push_back(id);
      threads.push_back(std::this_thread::get_id());
    };
  };
  // Job 0 holds the solver until released, so 1..4 are still queued when
  // job 2 is withdrawn.
  std::shared_ptr<BackgroundJob> first = SubmitBackground([&, released] {
    released.wait();
    job(0)();
  });
  std::shared_ptr<BackgroundJob> second = SubmitBackground(job(1));
  auto captured = std::make_shared<int>(7);
  std::shared_ptr<BackgroundJob> withdrawn =
      SubmitBackground([&, captured] { job(2)(); });
  std::shared_ptr<BackgroundJob> fourth = SubmitBackground(job(3));
  std::shared_ptr<BackgroundJob> last = SubmitBackground(job(4));
  WithdrawBackground(*withdrawn);
  EXPECT_EQ(captured.use_count(), 1);
  // A withdrawn job counts as settled: waiting on it returns at once.
  EXPECT_FALSE(WaitBackground(*withdrawn));
  release.set_value();
  WaitBackground(*last);
  // Every job before `last` has run by now; waiting on them never blocks.
  EXPECT_FALSE(WaitBackground(*first));
  EXPECT_FALSE(WaitBackground(*second));
  EXPECT_FALSE(WaitBackground(*fourth));
  WithdrawBackground(*fourth);  // already run: withdrawing is a no-op
  const std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4}));
  ASSERT_EQ(threads.size(), 4u);
  for (const std::thread::id& id : threads) {
    EXPECT_EQ(id, threads[0]);
    EXPECT_NE(id, std::this_thread::get_id());
  }
}

TEST(DefaultThreadsTest, WithinBounds) {
  const int threads = DefaultThreads(8);
  EXPECT_GE(threads, 1);
  EXPECT_LE(threads, 8);
}

TEST(DefaultThreadsTest, EnvOverrideWins) {
  ASSERT_EQ(setenv("CROWDTRUTH_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(DefaultThreads(), 3);
  // The operator's word is not capped.
  EXPECT_EQ(DefaultThreads(2), 3);
  ASSERT_EQ(unsetenv("CROWDTRUTH_THREADS"), 0);
}

TEST(DefaultThreadsTest, InvalidEnvFallsBackToHardware) {
  for (const char* bogus : {"0", "-4", "lots", ""}) {
    ASSERT_EQ(setenv("CROWDTRUTH_THREADS", bogus, /*overwrite=*/1), 0);
    const int threads = DefaultThreads(8);
    EXPECT_GE(threads, 1) << "env=" << bogus;
    EXPECT_LE(threads, 8) << "env=" << bogus;
  }
  ASSERT_EQ(unsetenv("CROWDTRUTH_THREADS"), 0);
}

}  // namespace
}  // namespace crowdtruth::util
