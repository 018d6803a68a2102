#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/sharded_counter.h"

namespace crowdtruth::util {
namespace {

// Cumulative ParallelForSlotted accounting (see SlottedPoolStats). Fixed
// slot capacity keeps the counters lock-free; DefaultThreads tops out far
// below this on any machine we target. Each slot's counter lives on its
// own cache line (ShardedCounter), so the one relaxed add a worker issues
// per region never false-shares with its neighbours — with a packed
// atomic array, eight workers' end-of-region adds would bounce the same
// line even though each touches only its own slot.
constexpr int kMaxTrackedSlots = 256;
std::atomic<int64_t> g_regions{0};
std::atomic<int64_t> g_tasks{0};
ShardedCounter<kMaxTrackedSlots>& g_slot_tasks =
    *new ShardedCounter<kMaxTrackedSlots>();

// True while this thread runs tasks of a pooled region, as its caller
// (slot 0) or as a worker. A ParallelForSlotted call made from inside such
// a task runs inline: the pool is busy with the enclosing region, whose
// caller holds run_mutex_ until every task — this one included — returns.
thread_local bool t_inside_region = false;

inline void NoteSlotTasks(int slot, int64_t executed) {
  if (executed == 0) return;
  g_tasks.fetch_add(executed, std::memory_order_relaxed);
  g_slot_tasks.Add(slot, executed);
}

// Persistent worker pool behind ParallelForSlotted. Workers are created
// on first demand (up to the largest num_threads ever requested), park on a
// condition variable between regions, and are intentionally leaked at
// process exit (they hold no resources beyond their stacks). One region
// runs at a time: Run() serializes concurrent callers, which keeps the
// shard/slot contract simple and avoids oversubscription when an outer
// ParallelFor (experiment trials) wraps inner slotted loops. A region
// started from inside a task (a shard barrier's resync reaching the EM
// kernel) never gets here; it runs inline on the calling worker.
class SlottedPool {
 public:
  static SlottedPool& Instance() {
    static SlottedPool* pool = new SlottedPool();
    return *pool;
  }

  void Run(int count, int num_threads, const std::function<void(int, int)>& fn) {
    const std::lock_guard<std::mutex> run_lock(run_mutex_);
    const int helpers = std::min(num_threads, count) - 1;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      while (static_cast<int>(workers_.size()) < helpers) {
        const int slot = static_cast<int>(workers_.size()) + 1;
        workers_.emplace_back([this, slot] { WorkerLoop(slot); });
        workers_.back().detach();
      }
      fn_ = &fn;
      count_ = count;
      next_.store(0, std::memory_order_relaxed);
      active_helpers_ = helpers;
      remaining_ = helpers;
      ++generation_;
    }
    work_cv_.notify_all();

    Drain(0);  // The caller participates as slot 0.

    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    fn_ = nullptr;
  }

 private:
  void WorkerLoop(int slot) {
    uint64_t seen = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [this, slot, seen] {
          return generation_ != seen && slot <= active_helpers_;
        });
        seen = generation_;
      }
      Drain(slot);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --remaining_;
      }
      done_cv_.notify_all();
    }
  }

  void Drain(int slot) {
    t_inside_region = true;
    int64_t executed = 0;
    while (true) {
      const int index = next_.fetch_add(1, std::memory_order_relaxed);
      if (index >= count_) break;
      (*fn_)(index, slot);
      ++executed;
    }
    t_inside_region = false;
    NoteSlotTasks(slot, executed);
  }

  std::mutex run_mutex_;  // Serializes whole regions across callers.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  const std::function<void(int, int)>* fn_ = nullptr;
  int count_ = 0;
  std::atomic<int> next_{0};
  int active_helpers_ = 0;
  int remaining_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace

class BackgroundJob {
 public:
  enum class State { kQueued, kRunning, kFinished, kWithdrawn };
  explicit BackgroundJob(std::function<void()> fn) : fn(std::move(fn)) {}

  // Released by the solver thread once it has run, or by the withdrawing
  // thread, so nothing the job captured outlives either.
  std::function<void()> fn;
  State state = State::kQueued;  // guarded by the runner's mutex
};

namespace {

// The thread behind SubmitBackground. Created (and its thread started) on
// first submit, and leaked at process exit like SlottedPool: the thread
// parks on a condition variable and holds nothing but its stack.
class BackgroundRunner {
 public:
  static BackgroundRunner& Instance() {
    static BackgroundRunner* runner = new BackgroundRunner();
    return *runner;
  }

  std::shared_ptr<BackgroundJob> Submit(std::function<void()> fn) {
    auto job = std::make_shared<BackgroundJob>(std::move(fn));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(job);
    }
    work_cv_.notify_one();
    return job;
  }

  bool Wait(BackgroundJob& job) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (Settled(job)) return false;
    done_cv_.wait(lock, [&job] { return Settled(job); });
    return true;
  }

  void Withdraw(BackgroundJob& job) {
    std::function<void()> released;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (job.state == BackgroundJob::State::kQueued) {
        std::erase_if(queue_, [&job](const std::shared_ptr<BackgroundJob>&
                                         queued) {
          return queued.get() == &job;
        });
        job.state = BackgroundJob::State::kWithdrawn;
        released = std::move(job.fn);
      } else {
        done_cv_.wait(lock, [&job] { return Settled(job); });
      }
    }
  }

 private:
  BackgroundRunner() : thread_([this] { Loop(); }) { thread_.detach(); }

  static bool Settled(const BackgroundJob& job) {
    return job.state == BackgroundJob::State::kFinished ||
           job.state == BackgroundJob::State::kWithdrawn;
  }

  void Loop() {
    while (true) {
      std::shared_ptr<BackgroundJob> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [this] { return !queue_.empty(); });
        job = std::move(queue_.front());
        queue_.pop_front();
        job->state = BackgroundJob::State::kRunning;
      }
      job->fn();
      job->fn = nullptr;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        job->state = BackgroundJob::State::kFinished;
      }
      done_cv_.notify_all();
#if defined(__GLIBC__)
      // This thread allocates from its own malloc arena, which would keep
      // the largest job's freed working set resident until the next job.
      malloc_trim(0);
#endif
    }
  }

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<std::shared_ptr<BackgroundJob>> queue_;
  std::thread thread_;
};

}  // namespace

std::shared_ptr<BackgroundJob> SubmitBackground(std::function<void()> fn) {
  return BackgroundRunner::Instance().Submit(std::move(fn));
}

bool WaitBackground(BackgroundJob& job) {
  return BackgroundRunner::Instance().Wait(job);
}

void WithdrawBackground(BackgroundJob& job) {
  BackgroundRunner::Instance().Withdraw(job);
}

void ParallelFor(int count, int num_threads,
                 const std::function<void(int)>& fn) {
  if (count <= 0) return;
  num_threads = std::min(num_threads, count);
  if (num_threads <= 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&] {
      while (true) {
        const int i = next.fetch_add(1);
        if (i >= count) break;
        fn(i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

void ParallelForSlotted(int count, int num_threads,
                        const std::function<void(int, int)>& fn) {
  if (count <= 0) return;
  g_regions.fetch_add(1, std::memory_order_relaxed);
  if (std::min(num_threads, count) <= 1 || t_inside_region) {
    for (int i = 0; i < count; ++i) fn(i, 0);
    NoteSlotTasks(0, count);
    return;
  }
  SlottedPool::Instance().Run(count, num_threads, fn);
}

SlottedPoolStats GetSlottedPoolStats() {
  SlottedPoolStats stats;
  stats.regions = g_regions.load(std::memory_order_relaxed);
  stats.tasks = g_tasks.load(std::memory_order_relaxed);
  const int top = g_slot_tasks.HighWatermark();
  stats.per_slot_tasks.reserve(top);
  for (int slot = 0; slot < top; ++slot) {
    stats.per_slot_tasks.push_back(g_slot_tasks.SlotValue(slot));
  }
  return stats;
}

int DefaultThreads(int cap) {
  const char* env = std::getenv("CROWDTRUTH_THREADS");
  if (env != nullptr) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  const int fallback = hardware == 0 ? 1 : static_cast<int>(hardware);
  return std::max(1, cap > 0 ? std::min(cap, fallback) : fallback);
}

}  // namespace crowdtruth::util
