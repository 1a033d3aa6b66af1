#!/usr/bin/env bash
# Result-store smoke test (CI and `make cache-smoke`): SIGKILL a sweep
# mid-flight, resume it against the same cache directory, and require
# the resumed output to be byte-identical to an uninterrupted run. The
# kill lands while results are mid-checkpoint, so this also exercises
# the store's crash-safety (atomic writes: no partial entry may survive
# under a final name) and its dead-holder lock breaking (locks left by
# the killed process must not stall the resume). Last, a single
# cmd/halfprice run, cold and then warm, must print what an uncached
# run prints, the warm one served from the store.
set -euo pipefail

cd "$(dirname "$0")/.."

insts=${CACHE_SMOKE_INSTS:-2000}

tmp=$(mktemp -d)
cleanup() {
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

go build -o "$tmp/figures" ./cmd/figures

echo "cache-smoke: uninterrupted reference sweep" >&2
"$tmp/figures" -insts "$insts" -j 4 -quiet -no-cache > "$tmp/clean.txt"

echo "cache-smoke: sweep into $tmp/cache, SIGKILL mid-flight" >&2
"$tmp/figures" -insts "$insts" -j 4 -quiet -cache-dir "$tmp/cache" > "$tmp/killed.txt" &
victim=$!
# objects/ does not exist until the sweep's store opens; under
# pipefail a bare `ls | wc -l` would fail the script on that race.
checkpointed() { (ls "$tmp/cache/objects" 2>/dev/null || true) | wc -l; }

# Let it checkpoint a few results, then kill -9: no chance to clean up,
# so partially written temp files and orphaned locks are on the table.
for _ in $(seq 1 200); do
  n=$(checkpointed)
  if [ "$n" -ge 3 ]; then
    break
  fi
  sleep 0.1
done
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
n=$(checkpointed)
if [ "$n" -lt 1 ]; then
  echo "cache-smoke: sweep finished before the kill landed; nothing checkpointed to resume from" >&2
  # Not a failure of the store: fall through — the resume below then
  # just runs from whatever was cached (possibly everything).
fi
echo "cache-smoke: killed with $n results checkpointed" >&2

echo "cache-smoke: resuming from the same cache directory" >&2
"$tmp/figures" -insts "$insts" -j 4 -quiet -cache-dir "$tmp/cache" \
  -progress-json "$tmp/progress.ndjson" > "$tmp/resumed.txt"

if ! cmp "$tmp/clean.txt" "$tmp/resumed.txt"; then
  echo "cache-smoke: FAIL — resumed output differs from the uninterrupted run" >&2
  diff "$tmp/clean.txt" "$tmp/resumed.txt" | head -40 >&2 || true
  exit 1
fi

# The resume must have been served from checkpoint, not recomputed from
# scratch: require cache-hit events in the progress stream.
if [ "$n" -ge 1 ] && ! grep -q '"event":"hit"' "$tmp/progress.ndjson"; then
  echo "cache-smoke: FAIL — no cache-hit events in the resumed sweep's progress stream" >&2
  exit 1
fi

# A third run over the now-complete cache must be all hits: zero
# simulations, still byte-identical.
echo "cache-smoke: fully cached rerun" >&2
"$tmp/figures" -insts "$insts" -j 4 -quiet -cache-dir "$tmp/cache" \
  -progress-json "$tmp/progress2.ndjson" > "$tmp/cached.txt"
if ! cmp "$tmp/clean.txt" "$tmp/cached.txt"; then
  echo "cache-smoke: FAIL — fully cached output differs from the uninterrupted run" >&2
  exit 1
fi
if grep -q '"event":"start"' "$tmp/progress2.ndjson"; then
  echo "cache-smoke: FAIL — fully cached rerun still simulated something" >&2
  exit 1
fi

# The single-run command checkpoints through the same store path: a
# cold run simulates and stores its result, a warm one is served from
# disk, and both print exactly what an uncached run prints.
go build -o "$tmp/halfprice" ./cmd/halfprice
echo "cache-smoke: halfprice single run, cold then warm" >&2
"$tmp/halfprice" -insts "$insts" -quiet -no-cache > "$tmp/hp-clean.txt"
for run in cold warm; do
  "$tmp/halfprice" -insts "$insts" -quiet -cache-dir "$tmp/hp" \
    -progress-json "$tmp/hp-$run.ndjson" > "$tmp/hp-$run.txt"
  if ! cmp "$tmp/hp-clean.txt" "$tmp/hp-$run.txt"; then
    echo "cache-smoke: FAIL — $run halfprice output differs from the -no-cache run" >&2
    exit 1
  fi
done
if ! grep -q '"event":"start"' "$tmp/hp-cold.ndjson" || ! grep -q '"event":"finish"' "$tmp/hp-cold.ndjson"; then
  echo "cache-smoke: FAIL — the cold halfprice run reported no start and finish" >&2
  exit 1
fi
if ! grep '"event":"hit"' "$tmp/hp-warm.ndjson" | grep -q '"source":"cache"' ||
  grep -q '"event":"start"' "$tmp/hp-warm.ndjson"; then
  echo "cache-smoke: FAIL — the warm halfprice run was not served from the store" >&2
  exit 1
fi

echo "cache-smoke: ok — resume after SIGKILL and a warm single run byte-identical to uncached runs" >&2
