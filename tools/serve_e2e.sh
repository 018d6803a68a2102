#!/usr/bin/env bash
# End-to-end exercise of the multi-tenant streaming server.
#
# Starts crowdtruth_serve on an ephemeral port, ingests two tenants over
# HTTP (alpha on the server's default ZC engine, beta created with
# ?method=MV), then checks the subsystem's load-bearing claims:
#
#   1. the truth served for each tenant is BIT-IDENTICAL to an offline
#      `crowdtruth_stream --log` replay of that tenant's answer log, also
#      after a request that failed part-way on a cross-request duplicate
#      and a CRLF request with quoted ids (the steps just before it);
#   2. malformed ingest answers a typed 4xx JSON error, never a 5xx;
#   3. /metrics passes tools/check_metrics_exposition.py and carries the
#      serving-plane families;
#   4. the adaptive controller demonstrably changed the admission budget
#      (the exported tickets gauge moved off its initial grant);
#   5. /debug/trace serves valid Chrome trace JSON containing a complete
#      ingest span tree (http_request -> tenant_ingest -> engine_observe);
#   6. SIGTERM shuts the server down cleanly (exit 0 — under ASan this is
#      also the leak check) and dumps the --metrics_out / --trace_out
#      artifacts.
#
# Usage: tools/serve_e2e.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVE="$BUILD_DIR/tools/crowdtruth_serve"
STREAM="$BUILD_DIR/tools/crowdtruth_stream"
WORK="$(mktemp -d)"
SERVER_PID=""

cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

[ -x "$SERVE" ] || fail "$SERVE not built"
[ -x "$STREAM" ] || fail "$STREAM not built"
mkdir -p "$WORK/data"

# Two deterministic, distinct workloads (worker,task,label; labels in
# {0,1,2}; no duplicate (worker,task) pairs), from an LCG in exact integer
# arithmetic (awk implementations that compute in doubles lose the product
# past 2^53). alpha's 187 rows cross --resync_interval=100 during ingest,
# so assertion 1 also covers a periodic resync.
python3 - "$WORK" <<'PYEOF'
import sys

def generate(path, seed, workers, tasks, keep_mod):
    s = seed
    with open(path, "w", encoding="utf-8") as out:
        for w in range(workers):
            for t in range(tasks):
                s = (s * 1103515245 + 12345) % 2147483648
                if s % keep_mod != 0:
                    out.write(f"w{w},t{t},{s % 3}\n")

generate(sys.argv[1] + "/alpha.csv", 7, 10, 25, 4)
generate(sys.argv[1] + "/beta.csv", 99, 8, 20, 3)
PYEOF

# A generous latency target so the controller's first decision is
# deterministically "probe up" — the gauge moving off --initial_tickets is
# assertion 4.
"$SERVE" --port=0 --data_dir="$WORK/data" --method=ZC --num_choices=3 \
    --resync_interval=100 --controller_interval_ms=100 \
    --target_latency_us=500000 --initial_tickets=2000 \
    --metrics_out="$WORK/final_metrics.prom" \
    --trace_out="$WORK/final_trace.json" \
    > "$WORK/serve.out" 2>&1 &
SERVER_PID=$!

BASE=""
for _ in $(seq 1 100); do
  port=$(sed -n 's#.*serving http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
      "$WORK/serve.out" | head -1)
  if [ -n "$port" ]; then BASE="http://127.0.0.1:$port"; break; fi
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.out"; \
      fail "server died during startup"; }
  sleep 0.1
done
[ -n "$BASE" ] || fail "server never reported its port"

curl -fsS "$BASE/healthz" | grep -q ok || fail "/healthz not ok"

# Ingest: alpha in three batches, beta (created as MV) in two — batching
# proves multiplexed requests append to the same per-tenant stream.
split -n l/3 "$WORK/alpha.csv" "$WORK/alpha_part_"
for part in "$WORK"/alpha_part_*; do
  curl -fsS -X POST --data-binary @"$part" \
      "$BASE/v1/tenants/alpha/answers" > /dev/null
done
split -n l/2 "$WORK/beta.csv" "$WORK/beta_part_"
first=1
for part in "$WORK"/beta_part_*; do
  if [ "$first" = 1 ]; then
    curl -fsS -X POST --data-binary @"$part" \
        "$BASE/v1/tenants/beta/answers?method=MV" > /dev/null
    first=0
  else
    curl -fsS -X POST --data-binary @"$part" \
        "$BASE/v1/tenants/beta/answers" > /dev/null
  fi
done

# Assertion 2: malformed ingest is a typed 4xx, not a 5xx.
code=$(curl -s -o "$WORK/err.json" -w '%{http_code}' -X POST \
    --data-binary 'not,a,row,at,all' "$BASE/v1/tenants/alpha/answers")
[ "$code" = 400 ] || fail "malformed ingest answered $code, wanted 400"
grep -q '"error": "ParseError"' "$WORK/err.json" \
    || fail "malformed ingest body lacks a typed error: $(cat "$WORK/err.json")"

# A reject-policy request that repeats an already-ingested (worker, task)
# pair after two fresh rows: 400 InvalidArgument, with the two fresh rows
# applied and group-committed to the log. Assertion 1 then checks that
# the log still replays to the served truth.
printf 'w20,t0,1\nw20,t1,2\n%s\n' "$(head -1 "$WORK/alpha.csv")" \
    > "$WORK/alpha_dup.csv"
code=$(curl -s -o "$WORK/dup.json" -w '%{http_code}' -X POST \
    --data-binary @"$WORK/alpha_dup.csv" "$BASE/v1/tenants/alpha/answers")
[ "$code" = 400 ] || fail "cross-request duplicate answered $code, wanted 400"
grep -q '"error": "InvalidArgument"' "$WORK/dup.json" \
    || fail "duplicate body lacks a typed error: $(cat "$WORK/dup.json")"

# A CRLF body with CSV-quoted worker ids ("w,21" and "w""22"): these rows
# take the ParseCsvLine path and must land in the log with the same ids.
printf '"w,21",t0,1\r\n"w""22",t0,2\r\n' > "$WORK/alpha_quoted.csv"
curl -fsS -X POST --data-binary @"$WORK/alpha_quoted.csv" \
    "$BASE/v1/tenants/alpha/answers" | grep -q '"accepted": 2' \
    || fail "quoted CRLF rows were not both accepted"

# The JSON truth body is valid JSON.
curl -fsS "$BASE/v1/tenants/alpha/truth?format=json" \
    | python3 -m json.tool > /dev/null \
    || fail "alpha truth?format=json is not valid JSON"

# Give the controller a few intervals to sample and act.
sleep 1

# Assertion 1: served truth == offline replay of the tenant's answer log.
curl -fsS "$BASE/v1/tenants/alpha/truth?resync=1" > "$WORK/alpha_served.csv"
curl -fsS "$BASE/v1/tenants/beta/truth?resync=1" > "$WORK/beta_served.csv"
"$STREAM" --log="$WORK/data/alpha.log" --method=ZC --resync_interval=100 \
    --output="$WORK/alpha_replay.csv" > /dev/null
"$STREAM" --log="$WORK/data/beta.log" --method=MV --resync_interval=100 \
    --output="$WORK/beta_replay.csv" > /dev/null
diff -u "$WORK/alpha_served.csv" "$WORK/alpha_replay.csv" \
    || fail "alpha: served truth != offline replay"
diff -u "$WORK/beta_served.csv" "$WORK/beta_replay.csv" \
    || fail "beta: served truth != offline replay"
cmp -s "$WORK/alpha_served.csv" "$WORK/beta_served.csv" \
    && fail "alpha and beta served identical truth; tenants not isolated?"

# Assertion 3: the scrape is well-formed and carries both planes.
curl -fsS "$BASE/metrics" > "$WORK/scrape.prom"
curl -fsS "$BASE/metrics.json" | python3 -m json.tool > /dev/null
python3 tools/check_metrics_exposition.py "$WORK/scrape.prom" \
    --require crowdtruth_server_requests_total \
              crowdtruth_server_request_duration_seconds \
              crowdtruth_server_admission_tickets \
              crowdtruth_server_controller_ticks_total \
              crowdtruth_server_observe_latency_quantile_seconds \
              crowdtruth_stream_answers_total \
              crowdtruth_stream_observe_latency_seconds \
              crowdtruth_stream_resync_duration_seconds

# Assertion 4: the controller probed the admission budget off its seed.
tickets=$(awk '/^crowdtruth_server_admission_tickets\{tenant="alpha"\}/ \
    { print $2 }' "$WORK/scrape.prom")
[ -n "$tickets" ] || fail "no admission tickets gauge for alpha"
awk -v t="$tickets" 'BEGIN { exit (t > 2000) ? 0 : 1 }' \
    || fail "controller never probed: tickets=$tickets (initial 2000)"

# Assertion 5: /debug/trace is valid Chrome trace JSON and contains at
# least one complete ingest span tree: an http_request span for an
# /answers POST, a tenant_ingest child, and an engine_observe grandchild.
curl -fsS "$BASE/debug/trace" > "$WORK/trace.json"
python3 - "$WORK/trace.json" <<'PYEOF'
import json, sys

with open(sys.argv[1], encoding="utf-8") as handle:
    doc = json.load(handle)
assert doc.get("otherData", {}).get("format") == "crowdtruth_trace", \
    "not a crowdtruth trace"
events = doc["traceEvents"]
assert events, "trace has no events"
for event in events:
    assert event["ph"] == "X", f"unexpected phase {event['ph']}"
    assert event["dur"] >= 0, "negative duration"
    assert "span_id" in event["args"], "event without span_id"

by_parent = {}
for event in events:
    by_parent.setdefault(event["args"]["parent_id"], []).append(event)

def children(event, name):
    return [child for child in by_parent.get(event["args"]["span_id"], [])
            if child["name"] == name]

for request in events:
    if request["name"] != "http_request":
        continue
    if not request["args"].get("path", "").endswith("/answers"):
        continue
    for ingest in children(request, "tenant_ingest"):
        if children(ingest, "engine_observe"):
            print("trace: found complete ingest span tree "
                  f"(trace_id {request['args']['trace_id']})")
            sys.exit(0)
sys.exit("no complete http_request -> tenant_ingest -> engine_observe tree")
PYEOF

# Assertion 6: clean shutdown on SIGTERM, plus the shutdown artifacts.
kill -TERM "$SERVER_PID"
server_exit=0
wait "$SERVER_PID" || server_exit=$?
SERVER_PID=""
[ "$server_exit" = 0 ] || { cat "$WORK/serve.out"; \
    fail "server exited $server_exit on SIGTERM"; }
[ -s "$WORK/final_metrics.prom" ] || fail "--metrics_out wrote nothing"
python3 tools/check_metrics_exposition.py "$WORK/final_metrics.prom" \
    --require crowdtruth_server_requests_total
[ -s "$WORK/final_trace.json" ] || fail "--trace_out wrote nothing"
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
    "$WORK/final_trace.json" || fail "--trace_out is not valid JSON"

echo "serve e2e: all assertions passed"
