#!/usr/bin/env bash
# End-to-end exercise of the sharded engine (src/shard/).
#
# Builds one deterministic answer log and checks the subsystem's
# load-bearing claim — same log, any shard count, kill-and-restart at any
# checkpoint, BIT-IDENTICAL truth — across every deployment shape:
#
#   1. crowdtruth_stream --shards=4 equals the single-engine replay byte
#      for byte (truth CSV);
#   2. periodic checkpoints + --resume_from a mid-run checkpoint reproduce
#      the same bytes;
#   3. four crowdtruth_shard worker processes all-reducing through a shared
#      workdir, then merge mode, reproduce the same bytes (truth AND worker
#      qualities);
#   4. SIGKILLing one worker mid-run (parked at a barrier, its peers not
#      yet started) and restarting it from its latest checkpoint still
#      reproduces the same bytes;
#   5. the drive-mode /metrics dump carries the per-shard
#      crowdtruth_shard_* families and passes the exposition checker;
#   6. Buggify (src/scenario/buggify.h) is deterministic: the same
#      --buggify_seed produces an identical fault log and bit-identical
#      truth at shard counts 1 and 4. In a default build the fault sites
#      are compiled out and the assertion holds trivially (empty logs);
#      CI also runs this script under -DCROWDTRUTH_BUGGIFY=ON with
#      CROWDTRUTH_BUGGIFY_SEED exported, which arms every assertion above
#      with live fault injection;
#   7. the numeric branch, for Mean and Median: the single-engine replay,
#      --shards=4, --resume_from a mid-run checkpoint, drive mode, and four
#      workers plus merge all write the same truth and worker CSVs.
#   8. ids are arbitrary strings: a log whose task and worker ids contain
#      the 0x1f byte gives the same truth through drive mode and through a
#      worker plus merge.
#
# Usage: tools/shard_e2e.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
STREAM="$BUILD_DIR/tools/crowdtruth_stream"
SHARD="$BUILD_DIR/tools/crowdtruth_shard"
WORK="$(mktemp -d)"

cleanup() {
  # Stray workers keep polling their barrier files; don't leak them.
  [ -z "${WORKER_PIDS:-}" ] || kill $WORKER_PIDS 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

[ -x "$STREAM" ] || fail "$STREAM not built"
[ -x "$SHARD" ] || fail "$SHARD not built"

# One deterministic categorical log: 60 tasks x 9 workers, ~80% density,
# labels in {0,1,2}, no duplicate (task, worker) pairs.
{
  echo "crowdtruth_log,v1,categorical,3"
  awk 'BEGIN { s = 11;
    for (t = 0; t < 60; ++t) for (w = 0; w < 9; ++w) {
      s = (s * 1103515245 + 12345) % 2147483648;
      if (s % 5 != 0) printf "t%d,w%d,%d\n", t, w, s % 3;
    } }'
} > "$WORK/answers.log"
total=$(($(wc -l < "$WORK/answers.log") - 1))
echo "log: $total answers"

# Baseline: the single-engine replay every other shape must reproduce.
"$STREAM" --log="$WORK/answers.log" --method=ZC --resync_interval=500 \
    --output="$WORK/single.csv" > /dev/null

# Assertion 1: in-process sharded replay, byte-identical for 4 shards.
"$STREAM" --log="$WORK/answers.log" --method=ZC --shards=4 \
    --resync_interval=100 --output="$WORK/shard4.csv" > /dev/null
cmp "$WORK/single.csv" "$WORK/shard4.csv" \
    || fail "4-shard truth differs from the single-engine replay"

# Assertion 2: checkpoint every 100 answers, then resume from a mid-run
# checkpoint and reproduce the same bytes.
mkdir -p "$WORK/ckpt"
"$STREAM" --log="$WORK/answers.log" --method=ZC --shards=4 \
    --resync_interval=100 --checkpoint_every=100 \
    --checkpoint_dir="$WORK/ckpt" --output="$WORK/ckpt_run.csv" > /dev/null
cmp "$WORK/single.csv" "$WORK/ckpt_run.csv" \
    || fail "checkpointing changed the output"
middle=$(ls "$WORK/ckpt" | sort | awk 'NR == 2')
[ -n "$middle" ] || fail "expected at least two checkpoints in $WORK/ckpt"
"$STREAM" --log="$WORK/answers.log" --method=ZC --shards=4 \
    --resync_interval=100 --resume_from="$WORK/ckpt/$middle" \
    --output="$WORK/resumed.csv" > /dev/null
cmp "$WORK/single.csv" "$WORK/resumed.csv" \
    || fail "resume from $middle diverged from the single-engine replay"

# A reference run for worker qualities (drive mode, 1 shard).
"$SHARD" --log="$WORK/answers.log" --shards=1 --method=ZC \
    --output="$WORK/drive1.csv" --workers_output="$WORK/workers1.csv" \
    > /dev/null
cmp "$WORK/single.csv" "$WORK/drive1.csv" \
    || fail "drive-mode truth differs from crowdtruth_stream"

# Assertion 3: four worker processes + file barriers + merge.
mkdir -p "$WORK/wd"
WORKER_PIDS=""
for i in 0 1 2 3; do
  "$SHARD" --mode=worker --log="$WORK/answers.log" --shards=4 \
      --shard_index="$i" --workdir="$WORK/wd" --method=ZC \
      --barrier_interval=100 --checkpoint_every=100 \
      > "$WORK/wd/worker$i.out" 2>&1 &
  WORKER_PIDS="$WORKER_PIDS $!"
done
for pid in $WORKER_PIDS; do
  wait "$pid" || fail "a worker process failed (logs in $WORK/wd)"
done
WORKER_PIDS=""
"$SHARD" --mode=merge --log="$WORK/answers.log" --shards=4 \
    --workdir="$WORK/wd" --method=ZC --output="$WORK/merged.csv" \
    --workers_output="$WORK/merged_workers.csv" > /dev/null
cmp "$WORK/single.csv" "$WORK/merged.csv" \
    || fail "merged worker-process truth differs from the single replay"
cmp "$WORK/workers1.csv" "$WORK/merged_workers.csv" \
    || fail "merged worker qualities differ from the single replay"

# Assertion 4: start shard 2 alone; once it publishes its barrier-100
# summary it is parked at that barrier (its peers are not running) with its
# sequence-50 checkpoint on disk. SIGKILL it, start the peers, restart it
# from the latest checkpoint, merge — same bytes.
mkdir -p "$WORK/wd2"
"$SHARD" --mode=worker --log="$WORK/answers.log" --shards=4 \
    --shard_index=2 --workdir="$WORK/wd2" --method=ZC \
    --barrier_interval=100 --checkpoint_every=50 \
    > "$WORK/wd2/worker2_crash.out" 2>&1 &
WORKER_PIDS=$!
for _ in $(seq 1 600); do
  [ -e "$WORK/wd2/summary_100_s2.json" ] && break
  sleep 0.05
done
[ -e "$WORK/wd2/summary_100_s2.json" ] \
    || fail "worker 2 never reached barrier 100"
kill -9 $WORKER_PIDS
wait $WORKER_PIDS 2>/dev/null || true
WORKER_PIDS=""
[ ! -e "$WORK/wd2/worker2_final.json" ] \
    || fail "worker 2 finished its slice before the kill"
ls "$WORK/wd2" | grep -q '^worker2_[0-9]*\.json$' \
    || fail "killed worker left no checkpoint behind"
for i in 0 1 3; do
  "$SHARD" --mode=worker --log="$WORK/answers.log" --shards=4 \
      --shard_index="$i" --workdir="$WORK/wd2" --method=ZC \
      --barrier_interval=100 --checkpoint_every=100 \
      > "$WORK/wd2/worker$i.out" 2>&1 &
  WORKER_PIDS="$WORKER_PIDS $!"
done
"$SHARD" --mode=worker --log="$WORK/answers.log" --shards=4 \
    --shard_index=2 --workdir="$WORK/wd2" --method=ZC \
    --barrier_interval=100 --checkpoint_every=50 --resume \
    > "$WORK/wd2/worker2_resume.out" 2>&1 \
    || fail "restarted worker failed (log in $WORK/wd2/worker2_resume.out)"
for pid in $WORKER_PIDS; do
  wait "$pid" || fail "a surviving worker failed (logs in $WORK/wd2)"
done
WORKER_PIDS=""
grep -q "restored" "$WORK/wd2/worker2_resume.out" \
    || fail "restarted worker did not report restoring a checkpoint"
"$SHARD" --mode=merge --log="$WORK/answers.log" --shards=4 \
    --workdir="$WORK/wd2" --method=ZC --output="$WORK/crashed.csv" \
    --workers_output="$WORK/crashed_workers.csv" > /dev/null
cmp "$WORK/single.csv" "$WORK/crashed.csv" \
    || fail "kill-and-restart truth differs from the single replay"
cmp "$WORK/workers1.csv" "$WORK/crashed_workers.csv" \
    || fail "kill-and-restart worker qualities differ"

# Assertion 5: the per-shard metric families are exported and well-formed.
mkdir -p "$WORK/ckpt2"
"$SHARD" --log="$WORK/answers.log" --shards=4 --method=ZC \
    --barrier_interval=100 --checkpoint_every=200 \
    --checkpoint_dir="$WORK/ckpt2" --output="$WORK/metrics_run.csv" \
    --metrics_out="$WORK/shard_metrics.prom" > /dev/null
python3 tools/check_metrics_exposition.py "$WORK/shard_metrics.prom" \
    --require crowdtruth_shard_barriers_total \
              crowdtruth_shard_summary_bytes_total \
              crowdtruth_shard_checkpoints_total \
              crowdtruth_shard_checkpoint_seconds \
              crowdtruth_shard_barrier_wait_seconds

# Assertion 6: fault-schedule determinism. Two runs with the same
# --buggify_seed must write byte-identical fault logs, and the faulty runs
# must still produce the single-engine truth bytes — at 1 and 4 shards.
for shards in 1 4; do
  for run in A B; do
    mkdir -p "$WORK/bg$run$shards"
    "$SHARD" --log="$WORK/answers.log" --shards="$shards" --method=ZC \
        --barrier_interval=100 --checkpoint_every=100 \
        --checkpoint_dir="$WORK/bg$run$shards" \
        --output="$WORK/bg$run$shards/truth.csv" \
        --buggify_seed=11 --buggify_activate=100 --buggify_fire=30 \
        --buggify_log="$WORK/bg$run$shards/faults.log" > /dev/null \
        || fail "buggify drive run $run ($shards shards) failed"
  done
  cmp "$WORK/bgA$shards/faults.log" "$WORK/bgB$shards/faults.log" \
      || fail "fault logs differ across identical runs ($shards shards)"
  cmp "$WORK/single.csv" "$WORK/bgA$shards/truth.csv" \
      || fail "buggify run truth differs from fault-free replay ($shards shards)"
done

# Assertion 7: the numeric branch of every shape, for Mean and Median.
awk 'BEGIN { s = 5; print "crowdtruth_log,v1,numeric";
  for (t = 0; t < 40; ++t) for (w = 0; w < 7; ++w) {
    s = (s * 16807) % 2147483647;
    if (s % 5 != 0) printf "t%d,w%d,%.2f\n", t, w, 40 + t % 9 + (s % 2000) / 100.0;
  } }' > "$WORK/numeric.log"
# same SHAPE TRUTH_CSV WORKERS_CSV: both match the single-engine replay.
same() {
  cmp "$N/single.csv" "$2" || fail "$method: $1 truth differs"
  cmp "$N/single_workers.csv" "$3" || fail "$method: $1 worker qualities differ"
}
for method in Mean Median; do
  N="$WORK/numeric_$method"
  mkdir -p "$N/ckpt" "$N/wd"
  "$STREAM" --log="$WORK/numeric.log" --method=$method --resync_interval=500 \
      --output="$N/single.csv" --workers_output="$N/single_workers.csv" \
      > /dev/null
  "$STREAM" --log="$WORK/numeric.log" --method=$method --shards=4 \
      --resync_interval=100 --checkpoint_every=100 --checkpoint_dir="$N/ckpt" \
      --output="$N/shard4.csv" --workers_output="$N/shard4_workers.csv" \
      > /dev/null
  same "--shards=4" "$N/shard4.csv" "$N/shard4_workers.csv"
  middle=$(ls "$N/ckpt" | sort | awk 'NR == 2')
  [ -n "$middle" ] || fail "$method: expected at least two checkpoints"
  "$STREAM" --log="$WORK/numeric.log" --method=$method --shards=4 \
      --resync_interval=100 --resume_from="$N/ckpt/$middle" \
      --output="$N/resumed.csv" --workers_output="$N/resumed_workers.csv" \
      > /dev/null
  same "--resume_from=$middle" "$N/resumed.csv" "$N/resumed_workers.csv"
  "$SHARD" --log="$WORK/numeric.log" --shards=4 --method=$method \
      --barrier_interval=100 --output="$N/drive.csv" \
      --workers_output="$N/drive_workers.csv" > /dev/null
  same "drive mode" "$N/drive.csv" "$N/drive_workers.csv"
  for i in 0 1 2 3; do
    "$SHARD" --mode=worker --log="$WORK/numeric.log" --shards=4 \
        --shard_index="$i" --workdir="$N/wd" --method=$method \
        --barrier_interval=100 --checkpoint_every=100 \
        > "$N/wd/worker$i.out" 2>&1 &
    WORKER_PIDS="$WORKER_PIDS $!"
  done
  for pid in $WORKER_PIDS; do
    wait "$pid" || fail "$method: a worker process failed (logs in $N/wd)"
  done
  WORKER_PIDS=""
  "$SHARD" --mode=merge --log="$WORK/numeric.log" --shards=4 \
      --workdir="$N/wd" --method=$method --output="$N/merged.csv" \
      --workers_output="$N/merged_workers.csv" > /dev/null
  same "4 workers + merge" "$N/merged.csv" "$N/merged_workers.csv"
done

# Assertion 8: task "a\x1fb" answered by worker "c" and task "a" answered
# by worker "b\x1fc" are two distinct answers in every mode.
{
  echo "crowdtruth_log,v1,categorical,2"
  printf 'a\037b,c,1\na,b\037c,0\n'
  awk 'BEGIN { for (i = 0; i < 18; ++i) printf "t%d,w%d,%d\n", i % 6, i % 5, i % 2 }'
} > "$WORK/sep.log"
mkdir -p "$WORK/sepwd"
"$SHARD" --log="$WORK/sep.log" --shards=1 --method=ZC \
    --output="$WORK/sep_drive.csv" > /dev/null
"$SHARD" --mode=worker --log="$WORK/sep.log" --shards=1 --shard_index=0 \
    --workdir="$WORK/sepwd" --method=ZC > "$WORK/sepwd/worker0.out" 2>&1 \
    || fail "worker over 0x1f ids failed (log in $WORK/sepwd)"
"$SHARD" --mode=merge --log="$WORK/sep.log" --shards=1 \
    --workdir="$WORK/sepwd" --method=ZC --output="$WORK/sep_merged.csv" \
    > /dev/null || fail "merge rejected the worker's slice over 0x1f ids"
cmp "$WORK/sep_drive.csv" "$WORK/sep_merged.csv" \
    || fail "worker + merge truth over 0x1f ids differs from drive mode"

echo "shard e2e: all assertions passed"
