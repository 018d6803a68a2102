#include "obs/trace_export.h"

#include <fstream>
#include <utility>

namespace crowdtruth::obs {

util::JsonValue TraceEventsJson(const std::vector<SpanRecord>& spans,
                                int64_t dropped_spans) {
  util::JsonValue events = util::JsonValue::Array();
  for (const SpanRecord& span : spans) {
    util::JsonValue event = util::JsonValue::Object();
    event.Set("name", span.name);
    event.Set("cat", "crowdtruth");
    event.Set("ph", "X");  // complete event: ts + dur in microseconds
    event.Set("ts", span.start_seconds * 1e6);
    event.Set("dur", span.duration_seconds * 1e6);
    event.Set("pid", 1);
    event.Set("tid", static_cast<int64_t>(span.thread_index));
    util::JsonValue args = util::JsonValue::Object();
    args.Set("trace_id", static_cast<int64_t>(span.trace_id));
    args.Set("span_id", static_cast<int64_t>(span.span_id));
    args.Set("parent_id", static_cast<int64_t>(span.parent_id));
    for (const auto& [key, value] : span.annotations) {
      args.Set(key, value);
    }
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }
  util::JsonValue other = util::JsonValue::Object();
  other.Set("format", "crowdtruth_trace");
  other.Set("dropped_spans", dropped_spans);
  util::JsonValue root = util::JsonValue::Object();
  root.Set("traceEvents", std::move(events));
  root.Set("displayTimeUnit", "ms");
  root.Set("otherData", std::move(other));
  return root;
}

std::string TraceJsonText(const FlightRecorder& recorder) {
  return TraceEventsJson(recorder.Dump(), recorder.dropped()).Dump(2) + "\n";
}

util::Status WriteTraceFile(const std::string& path,
                            const FlightRecorder& recorder) {
  return util::WriteJsonFile(
      path, TraceEventsJson(recorder.Dump(), recorder.dropped()));
}

util::Status WriteMetricsFile(const std::string& path,
                              MetricRegistry& registry) {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    return util::WriteJsonFile(path, registry.ToJson());
  }
  std::ofstream out(path);
  if (out) registry.WritePrometheus(out);
  if (!out.good()) return util::Status::IoError("cannot write " + path);
  return util::Status::Ok();
}

}  // namespace crowdtruth::obs
