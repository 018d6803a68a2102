// Chrome trace_event export for flight-recorder dumps: the JSON object
// format that chrome://tracing and https://ui.perfetto.dev load directly.
//
// Each SpanRecord becomes one complete ("ph": "X") event; span identity
// and parentage ride in "args" (trace_id / span_id / parent_id, plus the
// span's annotations) so tooling — and tools/serve_e2e.sh's span-tree
// assertion — can rebuild the causal tree from the file alone.
#ifndef CROWDTRUTH_OBS_TRACE_EXPORT_H_
#define CROWDTRUTH_OBS_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/json_writer.h"
#include "util/status.h"

namespace crowdtruth::obs {

// {"traceEvents": [...], "displayTimeUnit": "ms",
//  "otherData": {"format": "crowdtruth_trace", "dropped_spans": N}}.
util::JsonValue TraceEventsJson(const std::vector<SpanRecord>& spans,
                                int64_t dropped_spans = 0);

// Dumps `recorder` and renders it in one step (the /debug/trace body).
std::string TraceJsonText(const FlightRecorder& recorder);

// Dumps `recorder` to `path` as trace-event JSON (the --trace_out flag).
util::Status WriteTraceFile(const std::string& path,
                            const FlightRecorder& recorder);

// Dumps `registry` to `path` (the --metrics_out flag): JSON when the path
// ends in ".json", Prometheus text exposition otherwise.
util::Status WriteMetricsFile(const std::string& path,
                              MetricRegistry& registry);

}  // namespace crowdtruth::obs

#endif  // CROWDTRUTH_OBS_TRACE_EXPORT_H_
