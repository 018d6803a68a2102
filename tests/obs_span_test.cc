// Tests for span tracing (obs/span.h), the flight recorder
// (obs/flight_recorder.h) and the Chrome trace_event export
// (obs/trace_export.h): parenting via the thread-local stack and via an
// explicit parent across threads (the shard barrier's pool tasks),
// per-thread rings with bounded memory, and the exported JSON shape.
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "shard/coordinator.h"
#include "util/json_writer.h"
#include "util/stopwatch.h"

namespace crowdtruth::obs {
namespace {

// RAII install/uninstall so a failing test cannot leak a dangling
// process-wide recorder into its neighbors.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(FlightRecorderConfig config = {})
      : recorder_(config) {
    InstallFlightRecorder(&recorder_);
  }
  ~ScopedRecorder() { InstallFlightRecorder(nullptr); }
  FlightRecorder* get() { return &recorder_; }

 private:
  FlightRecorder recorder_;
};

const SpanRecord* FindByName(const std::vector<SpanRecord>& spans,
                             const std::string& name) {
  for (const SpanRecord& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

TEST(SpanTest, DisarmedWithoutRecorder) {
  ASSERT_EQ(ProcessFlightRecorder(), nullptr);
  Span span("orphan");
  EXPECT_FALSE(span.armed());
  EXPECT_EQ(span.context().span_id, 0u);
  span.Annotate("key", std::string("value"));  // must be a no-op, not a crash
}

// Every span is its event's clock, armed or not: ElapsedSeconds starts at
// the span's opening (bounded by a stopwatch started just before it) and
// never runs backwards.
TEST(SpanTest, DisarmedSpanStillTimesItsEvent) {
  ASSERT_EQ(ProcessFlightRecorder(), nullptr);
  const util::Stopwatch outer;
  Span span("clock");
  double last = span.ElapsedSeconds();
  EXPECT_GE(last, 0.0);
  for (int i = 0; i < 1000; ++i) {
    const double now = span.ElapsedSeconds();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_LE(last, outer.ElapsedSeconds());
}

// Inside an UnrecordedScope spans record nothing but still time their
// events; spans opened before and after it record as usual.
TEST(SpanTest, UnrecordedScopeDisarmsTheSpansOpenedInIt) {
  ScopedRecorder recorder;
  {
    Span outer("kept_outer");
    ASSERT_TRUE(outer.armed());
    {
      const UnrecordedScope quiet;
      Span inner("dropped_inner");
      EXPECT_FALSE(inner.armed());
      EXPECT_GE(inner.ElapsedSeconds(), 0.0);
    }
    Span after("kept_after");
    EXPECT_TRUE(after.armed());
  }
  const std::vector<SpanRecord> spans = recorder.get()->Dump();
  EXPECT_NE(FindByName(spans, "kept_outer"), nullptr);
  EXPECT_NE(FindByName(spans, "kept_after"), nullptr);
  EXPECT_EQ(FindByName(spans, "dropped_inner"), nullptr);
}

// An armed span's recorded duration is the same clock: it is at least any
// elapsed time read inside the span, and no longer than the span's scope.
TEST(SpanTest, ArmedDurationBoundsElapsedReadings) {
  ScopedRecorder recorder;
  const util::Stopwatch outer;
  double inner = 0.0;
  {
    Span span("timed");
    ASSERT_TRUE(span.armed());
    inner = span.ElapsedSeconds();
    EXPECT_GE(inner, 0.0);
    while (span.ElapsedSeconds() <= inner) {
    }
    const double later = span.ElapsedSeconds();
    EXPECT_GT(later, inner);
    inner = later;
  }
  const double scope = outer.ElapsedSeconds();
  const std::vector<SpanRecord> spans = recorder.get()->Dump();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].duration_seconds, inner);
  EXPECT_LE(spans[0].duration_seconds, scope);
}

TEST(SpanTest, RecordsOnDestruction) {
  ScopedRecorder recorder;
  { Span span("unit"); }
  const std::vector<SpanRecord> spans = recorder.get()->Dump();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "unit");
  EXPECT_NE(spans[0].span_id, 0u);
  EXPECT_NE(spans[0].trace_id, 0u);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_GE(spans[0].duration_seconds, 0.0);
}

TEST(SpanTest, NestedSpansLinkParentChild) {
  ScopedRecorder recorder;
  {
    Span root("request");
    {
      Span mid("ingest");
      { Span leaf("observe"); }
    }
    { Span sibling("export"); }
  }
  const std::vector<SpanRecord> spans = recorder.get()->Dump();
  ASSERT_EQ(spans.size(), 4u);
  const SpanRecord* root = FindByName(spans, "request");
  const SpanRecord* mid = FindByName(spans, "ingest");
  const SpanRecord* leaf = FindByName(spans, "observe");
  const SpanRecord* sibling = FindByName(spans, "export");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(mid, nullptr);
  ASSERT_NE(leaf, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(mid->parent_id, root->span_id);
  EXPECT_EQ(leaf->parent_id, mid->span_id);
  EXPECT_EQ(sibling->parent_id, root->span_id);
  // One causal tree, one trace id.
  EXPECT_EQ(mid->trace_id, root->trace_id);
  EXPECT_EQ(leaf->trace_id, root->trace_id);
  EXPECT_EQ(sibling->trace_id, root->trace_id);
}

TEST(SpanTest, SequentialRootsGetDistinctTraces) {
  ScopedRecorder recorder;
  { Span a("first"); }
  { Span b("second"); }
  const std::vector<SpanRecord> spans = recorder.get()->Dump();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].trace_id, spans[1].trace_id);
}

TEST(SpanTest, AnnotationsAreRecorded) {
  ScopedRecorder recorder;
  {
    Span span("annotated");
    span.Annotate("tenant", std::string("alpha"));
    span.Annotate("rows", int64_t{42});
    span.Annotate("ratio", 0.5);
  }
  const std::vector<SpanRecord> spans = recorder.get()->Dump();
  ASSERT_EQ(spans.size(), 1u);
  std::map<std::string, std::string> notes(spans[0].annotations.begin(),
                                           spans[0].annotations.end());
  EXPECT_EQ(notes["tenant"], "alpha");
  EXPECT_EQ(notes["rows"], "42");
  EXPECT_EQ(notes["ratio"], "0.5");
}

TEST(SpanTest, ChildStartsNestWithinParentTimeline) {
  ScopedRecorder recorder;
  {
    Span root("outer");
    { Span child("inner"); }
  }
  const std::vector<SpanRecord> spans = recorder.get()->Dump();
  const SpanRecord* root = FindByName(spans, "outer");
  const SpanRecord* child = FindByName(spans, "inner");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_GE(child->start_seconds, root->start_seconds);
  EXPECT_LE(child->start_seconds + child->duration_seconds,
            root->start_seconds + root->duration_seconds + 1e-9);
}

TEST(SpanTest, ExplicitParentLinksAcrossThreads) {
  ScopedRecorder recorder;
  {
    Span root("barrier");
    const SpanContext parent = root.context();
    std::thread worker([parent]() {
      Span task("task", parent);
      { Span leaf("leaf"); }  // nests under `task` through the thread stack
    });
    worker.join();
    { Span after("after"); }  // this thread's stack is untouched
  }
  { Span fallback("fallback", SpanContext()); }  // zero context: a root
  const std::vector<SpanRecord> spans = recorder.get()->Dump();
  ASSERT_EQ(spans.size(), 5u);
  const SpanRecord* root = FindByName(spans, "barrier");
  const SpanRecord* task = FindByName(spans, "task");
  const SpanRecord* leaf = FindByName(spans, "leaf");
  const SpanRecord* after = FindByName(spans, "after");
  const SpanRecord* fallback = FindByName(spans, "fallback");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(task, nullptr);
  ASSERT_NE(leaf, nullptr);
  ASSERT_NE(after, nullptr);
  ASSERT_NE(fallback, nullptr);
  EXPECT_NE(task->thread_index, root->thread_index);
  EXPECT_EQ(task->parent_id, root->span_id);
  EXPECT_EQ(task->trace_id, root->trace_id);
  EXPECT_EQ(leaf->parent_id, task->span_id);
  EXPECT_EQ(leaf->trace_id, root->trace_id);
  EXPECT_EQ(after->parent_id, root->span_id);
  EXPECT_EQ(fallback->parent_id, 0u);
  EXPECT_NE(fallback->trace_id, root->trace_id);
}

// Sets CROWDTRUTH_THREADS (the shard barrier's pool width) for a scope.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    if (const char* old = std::getenv("CROWDTRUTH_THREADS")) saved_ = old;
    setenv("CROWDTRUTH_THREADS", value, /*overwrite=*/1);
  }
  ~ScopedThreadsEnv() {
    if (saved_.has_value()) {
      setenv("CROWDTRUTH_THREADS", saved_->c_str(), /*overwrite=*/1);
    } else {
      unsetenv("CROWDTRUTH_THREADS");
    }
  }

 private:
  std::optional<std::string> saved_;
};

// The tree a traced shard barrier records: shard_barrier -> one
// engine_resync per shard -> em_run -> EM steps, in one trace, whichever
// pool thread ran each shard's resync.
TEST(SpanTest, ShardBarrierTreeSpansThePool) {
  const ScopedThreadsEnv threads("4");
  std::unique_ptr<shard::CategoricalShardCoordinator> coordinator;
  shard::CoordinatorConfig config;
  config.shard_count = 4;
  config.method = "D&S";
  config.num_choices = 3;
  ASSERT_TRUE(
      shard::CategoricalShardCoordinator::Create(config, &coordinator).ok());
  for (int t = 0; t < 40; ++t) {
    for (int w = 0; w < 5; ++w) {
      ASSERT_TRUE(coordinator
                      ->Observe("t" + std::to_string(t),
                                "w" + std::to_string(w), (t * w + t) % 3)
                      .ok());
    }
  }
  ScopedRecorder recorder;
  ASSERT_TRUE(coordinator->RunBarrier().ok());
  const std::vector<SpanRecord> spans = recorder.get()->Dump();
  const SpanRecord* barrier = FindByName(spans, "shard_barrier");
  ASSERT_NE(barrier, nullptr);
  EXPECT_EQ(barrier->parent_id, 0u);
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : spans) by_id[span.span_id] = &span;
  int resyncs = 0;
  int em_runs = 0;
  for (const SpanRecord& span : spans) {
    // One tree: every span the barrier recorded shares its trace and
    // resolves its parent inside the dump.
    EXPECT_EQ(span.trace_id, barrier->trace_id) << span.name;
    if (&span != barrier) {
      ASSERT_EQ(by_id.count(span.parent_id), 1u) << span.name;
    }
    if (span.name == "engine_resync") {
      ++resyncs;
      EXPECT_EQ(span.parent_id, barrier->span_id);
    } else if (span.name == "em_run") {
      ++em_runs;
      EXPECT_EQ(by_id[span.parent_id]->name, "engine_resync");
    }
  }
  EXPECT_EQ(resyncs, 4);
  EXPECT_EQ(em_runs, 4);
}

TEST(FlightRecorderTest, RingOverwritesOldestAndCountsDrops) {
  FlightRecorderConfig config;
  config.capacity_per_thread = 4;
  ScopedRecorder recorder(config);
  for (int i = 0; i < 10; ++i) {
    Span span("burst");
    span.Annotate("index", int64_t{i});
  }
  const std::vector<SpanRecord> spans = recorder.get()->Dump();
  ASSERT_EQ(spans.size(), 4u);  // bounded by capacity
  EXPECT_EQ(recorder.get()->recorded(), 10);
  EXPECT_EQ(recorder.get()->dropped(), 6);
  // The survivors are the newest four, in start order.
  for (size_t i = 0; i < spans.size(); ++i) {
    ASSERT_EQ(spans[i].annotations.size(), 1u);
    EXPECT_EQ(spans[i].annotations[0].second,
              std::to_string(6 + static_cast<int>(i)));
  }
}

TEST(FlightRecorderTest, ThreadsRecordIntoSeparateRings) {
  ScopedRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kSpansEach = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t]() {
      for (int i = 0; i < kSpansEach; ++i) {
        Span span("worker");
        span.Annotate("thread", int64_t{t});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<SpanRecord> spans = recorder.get()->Dump();
  EXPECT_EQ(spans.size(),
            static_cast<size_t>(kThreads) * kSpansEach);
  std::set<uint64_t> ids;
  std::set<uint32_t> rings;
  for (const SpanRecord& span : spans) {
    ids.insert(span.span_id);
    rings.insert(span.thread_index);
  }
  EXPECT_EQ(ids.size(), spans.size());  // span ids stay process-unique
  EXPECT_EQ(rings.size(), static_cast<size_t>(kThreads));
}

TEST(TraceExportTest, ChromeTraceShape) {
  ScopedRecorder recorder;
  {
    Span root("request");
    Span child("work");
  }
  const util::JsonValue doc =
      TraceEventsJson(recorder.get()->Dump(), recorder.get()->dropped());
  const util::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 2u);
  const util::JsonValue& event = events->items()[0];
  ASSERT_NE(event.Find("name"), nullptr);
  EXPECT_EQ(event.Find("ph")->string(), "X");
  EXPECT_GE(event.Find("dur")->number(), 0.0);
  const util::JsonValue* args = event.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_NE(args->Find("trace_id"), nullptr);
  EXPECT_NE(args->Find("span_id"), nullptr);
  EXPECT_NE(args->Find("parent_id"), nullptr);
  const util::JsonValue* other = doc.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->Find("format")->string(), "crowdtruth_trace");
  EXPECT_EQ(other->Find("dropped_spans")->number(), 0.0);
}

TEST(TraceExportTest, ParentIdsResolveWithinDump) {
  ScopedRecorder recorder;
  {
    Span root("root");
    { Span a("a"); }
    { Span b("b"); }
  }
  const std::vector<SpanRecord> spans = recorder.get()->Dump();
  std::set<uint64_t> ids;
  for (const SpanRecord& span : spans) ids.insert(span.span_id);
  for (const SpanRecord& span : spans) {
    if (span.parent_id != 0) {
      EXPECT_TRUE(ids.count(span.parent_id) > 0)
          << span.name << " has dangling parent";
    }
  }
}

}  // namespace
}  // namespace crowdtruth::obs
