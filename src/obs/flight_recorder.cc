#include "obs/flight_recorder.h"

#include <algorithm>
#include <atomic>

namespace crowdtruth::obs {

namespace {
std::atomic<uint64_t> g_next_recorder_id{1};
}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config),
      instance_id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {
  if (config_.capacity_per_thread == 0) config_.capacity_per_thread = 1;
}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::Ring* FlightRecorder::RingForThisThread() {
  // One ring per (recorder, thread): the cache keys on the recorder's
  // process-unique instance id — not its address, which the allocator can
  // reuse — so a thread that outlives one recorder re-registers with the
  // next instead of writing through a dangling pointer.
  thread_local uint64_t cached_owner_id = 0;
  thread_local Ring* cached_ring = nullptr;
  if (cached_owner_id == instance_id_) return cached_ring;
  const std::lock_guard<std::mutex> lock(rings_mutex_);
  rings_.push_back(std::make_unique<Ring>(config_.capacity_per_thread));
  cached_owner_id = instance_id_;
  cached_ring = rings_.back().get();
  return cached_ring;
}

void FlightRecorder::Record(SpanRecord&& record) {
  Ring* ring = RingForThisThread();
  record.thread_index = 0;  // assigned during Dump from ring order
  const std::lock_guard<std::mutex> lock(ring->mutex);
  if (ring->slots.size() < ring->capacity) {
    ring->slots.push_back(std::move(record));
  } else {
    ring->slots[ring->next] = std::move(record);
  }
  ring->next = (ring->next + 1) % ring->capacity;
  ++ring->written;
}

std::vector<SpanRecord> FlightRecorder::Dump() const {
  std::vector<const Ring*> rings;
  {
    const std::lock_guard<std::mutex> lock(rings_mutex_);
    rings.reserve(rings_.size());
    for (const auto& ring : rings_) rings.push_back(ring.get());
  }
  std::vector<SpanRecord> out;
  for (size_t r = 0; r < rings.size(); ++r) {
    const Ring* ring = rings[r];
    const std::lock_guard<std::mutex> lock(ring->mutex);
    const size_t capacity = ring->capacity;
    const size_t filled = std::min<int64_t>(ring->written, capacity);
    // Oldest-first: the ring wraps at `next`, so the oldest retained slot
    // is `next` once the ring has wrapped, 0 before.
    const size_t oldest =
        ring->written > static_cast<int64_t>(capacity) ? ring->next : 0;
    for (size_t i = 0; i < filled; ++i) {
      SpanRecord record = ring->slots[(oldest + i) % capacity];
      record.thread_index = static_cast<uint32_t>(r);
      out.push_back(std::move(record));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_seconds != b.start_seconds) {
                return a.start_seconds < b.start_seconds;
              }
              return a.span_id < b.span_id;
            });
  return out;
}

int64_t FlightRecorder::recorded() const {
  const std::lock_guard<std::mutex> lock(rings_mutex_);
  int64_t total = 0;
  for (const auto& ring : rings_) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    total += ring->written;
  }
  return total;
}

int64_t FlightRecorder::dropped() const {
  const std::lock_guard<std::mutex> lock(rings_mutex_);
  int64_t total = 0;
  for (const auto& ring : rings_) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    const int64_t capacity = static_cast<int64_t>(ring->capacity);
    if (ring->written > capacity) total += ring->written - capacity;
  }
  return total;
}

namespace {
std::atomic<FlightRecorder*> g_flight_recorder{nullptr};
}  // namespace

FlightRecorder* ProcessFlightRecorder() {
  return g_flight_recorder.load(std::memory_order_acquire);
}

void InstallFlightRecorder(FlightRecorder* recorder) {
  g_flight_recorder.store(recorder, std::memory_order_release);
}

}  // namespace crowdtruth::obs
