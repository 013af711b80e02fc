#!/usr/bin/env bash
# Golden determinism check: runs ssp_sparsify over the checked-in fixture
# graphs through all three execution paths — the whole-graph engine, the
# partition-parallel scale layer, and the dynamic update layer — and
# compares the output edge lists byte for byte (sha256) against
# tests/fixtures/golden_hashes.txt. Every path is pinned to fixed options
# and seeds, so any hash drift is a cross-PR determinism regression.
# Each route then re-runs with --progress=stages: the output must be
# byte-identical, and the log must carry that route's telemetry lines
# (engine stages, one line per block plus the cut, one line per batch).
#
# Usage: golden_determinism.sh <ssp_sparsify> <fixtures_dir> <work_dir>
#
# Regenerate hashes after an *intentional* output change:
#   tests/golden_determinism.sh build/ssp_sparsify tests/fixtures /tmp/gw --update

set -u

SPARSIFY="$1"
FIXTURES="$2"
WORK="$3"
UPDATE="${4:-}"

mkdir -p "$WORK"
rm -f "$WORK"/*.mtx

run() { # run <output-name> <args...>
  local out="$WORK/$1"
  shift
  if ! "$SPARSIFY" "$@" --out "$out" > "$WORK/log.txt" 2>&1; then
    echo "FAIL: ssp_sparsify $* exited non-zero" >&2
    cat "$WORK/log.txt" >&2
    exit 1
  fi
}

# grid8: 8x8 weighted lattice. community16: four planted blocks.
for fixture in grid8 community16; do
  in="$FIXTURES/$fixture.mtx"
  run "${fixture}_plain.mtx"     --in "$in" --sigma2 8 --seed 42
  run "${fixture}_part4.mtx"     --in "$in" --sigma2 8 --seed 42 --partitions 4
  run "${fixture}_dynamic.mtx"   --in "$in" --sigma2 8 --seed 42 \
      --update-file "$FIXTURES/$fixture.journal"
done

fail() { # fail <message> <log>
  echo "FAIL: $1" >&2
  cat "$2" >&2
  exit 1
}

count() { # count <regex> <log>: lines of the log matching the regex
  grep -cE "$1" "$2"
}

PROGRESS="$WORK/progress"
mkdir -p "$PROGRESS"
rm -f "$PROGRESS"/*

run_progress() { # run_progress <output-name> <args...>: prints the log path
  local name="$1"
  shift
  local log="$PROGRESS/$name.log"
  if ! "$SPARSIFY" "$@" --progress=stages --out "$PROGRESS/$name" \
      > "$log" 2>&1; then
    fail "ssp_sparsify $* --progress=stages exited non-zero" "$log"
  fi
  cmp -s "$WORK/$name" "$PROGRESS/$name" ||
    fail "--progress changed the output of $name" "$log"
  echo "$log"
}

for fixture in grid8 community16; do
  in="$FIXTURES/$fixture.mtx"
  log=$(run_progress "${fixture}_plain.mtx" --in "$in" --sigma2 8 --seed 42) ||
    exit 1
  for stage in backbone solver-setup spectral-estimate embedding filtering; do
    [ "$(count "^  stage $stage " "$log")" -ge 1 ] ||
      fail "$fixture plain: no '$stage' stage line" "$log"
  done

  log=$(run_progress "${fixture}_part4.mtx" --in "$in" --sigma2 8 --seed 42 \
      --partitions 4) || exit 1
  blocks=$(sed -n 's/^blocks: \([0-9]*\) .*/\1/p' "$log")
  [ -n "$blocks" ] || fail "$fixture part4: no blocks summary" "$log"
  for ((b = 0; b < blocks; ++b)); do
    [ "$(count "^  block +$b " "$log")" -eq 1 ] ||
      fail "$fixture part4: expected one line for block $b" "$log"
  done
  [ "$(count '^  block ' "$log")" -eq "$blocks" ] ||
    fail "$fixture part4: expected $blocks block lines" "$log"
  [ "$(count '^  cut ' "$log")" -eq 1 ] ||
    fail "$fixture part4: expected one cut line" "$log"

  journal="$FIXTURES/$fixture.journal"
  log=$(run_progress "${fixture}_dynamic.mtx" --in "$in" --sigma2 8 --seed 42 \
      --update-file "$journal") || exit 1
  batches=$(($(count '^commit' "$journal") + 1))  # plus batch 0
  [ "$(count '^batch +[0-9]+ ' "$log")" -eq "$batches" ] ||
    fail "$fixture dynamic: expected $batches batch lines" "$log"
done

cd "$WORK" || exit 1
sha256sum ./*.mtx > observed_hashes.txt

if [ "$UPDATE" = "--update" ]; then
  cp observed_hashes.txt "$FIXTURES/golden_hashes.txt"
  echo "updated $FIXTURES/golden_hashes.txt"
  exit 0
fi

if ! diff -u "$FIXTURES/golden_hashes.txt" observed_hashes.txt; then
  echo "FAIL: sparsifier output drifted from the golden fixtures." >&2
  echo "If the change is intentional, regenerate with --update." >&2
  exit 1
fi
echo "golden determinism OK ($(wc -l < observed_hashes.txt) outputs)"
