#!/usr/bin/env bash
# One-stop pre-merge gate:
#   1. plain build + the tier-1 test suite,
#   2. ThreadSanitizer build + the concurrency suites (`-L tsan`): every
#      suite labelled `tsan` in tests/CMakeLists.txt (the thread pool, the
#      service and its stress/shard/framing suites, the metrics-determinism
#      binary that re-runs the service and eval pipelines at --threads
#      1/2/8 with mid-run registry scrapes, the linkage and privacy-ledger
#      property suites, mia) runs whole under TSan here and nowhere else,
#   3. the scenario-catalog golden gate: poibench --all --smoke at
#      --threads 1 and --threads 8 must print exactly the stdout committed
#      as tests/golden/all.smoke.txt (only the printed thread count is
#      normalized away). The golden holds every deterministic scenario's
#      smoke table, the fig02/fig03 recovery-model sections included, so
#      any drift in a figure's numbers or in the thread-count invariance
#      fails here,
#   4. a warning-clean Release build (-Werror, every target) plus the
#      perfbench gate: the repository benchmark (perfbench/) builds in
#      Release, its own perfbench_test passes, and 2-second serve_hot and
#      serve_cold runs (open-loop TCP against a loopback server, every
#      reply checked against an in-process serve() of the trace; the
#      hot run pipelines cache-resident users, the cold one first-contact
#      users) each report correct with no failed requests,
#   5. the kernel-dispatch gate: the tier-1 suite re-runs with
#      POIPRIVACY_KERNEL=scalar (the portable tier must carry the whole
#      suite, not just the property tests), and poibench --all --smoke
#      must emit byte-identical output under the scalar and the native
#      tier at --threads 1/2/8 — SIMD is an implementation detail,
#      never an observable one,
#   6. an Address+UB-Sanitizer build running the kernel, fingerprint and
#      tile-window property suites under both the native and the scalar
#      tier (the explicit SIMD kernels read memory in 32-byte gulps;
#      ASan/UBSan prove the tails stay in bounds),
#   7. the linkage-engine gate: the linkage_100k smoke must be
#      byte-identical at --threads 1/2/8 (the per-user streaming loop is
#      an ordered reduction, so the thread count must never be
#      observable), its zero-allocation store-fill check must hold, and
#      the Release --json smoke must emit a parseable sweep,
#   8. the stream_utility gate: its smoke must be byte-identical at
#      --threads 1/2/8 (the scenario itself fails when Top-K Jaccard is
#      not monotone in epsilon; budget renewal across epochs is the
#      service_test ctest RenewalTurnsExhaustedIntoGrantsAcrossWaves).
#
# Usage: scripts/check.sh [jobs]   (default: nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${1:-$(nproc)}"

echo "== [1/8] plain build + tier-1 tests =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
(cd build && ctest -L tier1 --output-on-failure -j "$jobs")

echo "== [2/8] ThreadSanitizer build + tsan-labelled tests =="
cmake -B build-tsan -S . -DPOIPRIVACY_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs"
(cd build-tsan && ctest -L tsan --output-on-failure -j "$jobs")

echo "== [3/8] poibench --all --smoke == tests/golden/all.smoke.txt at --threads 1/8 =="
cmake --build build -j "$jobs" --target poibench
for threads in 1 8; do
  smoke_t="$(mktemp)"
  ./build/bench/poibench --all --smoke --threads "$threads" 2>/dev/null \
    | sed 's/threads=[0-9]*/threads=N/' > "$smoke_t"
  diff -u tests/golden/all.smoke.txt "$smoke_t"
  rm -f "$smoke_t"
  echo "poibench smoke: $(grep -c '^==== ' tests/golden/all.smoke.txt) scenarios byte-identical to the golden at --threads $threads"
done

echo "== [4/8] warning-clean Release build + perfbench gate =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-release -j "$jobs"
# The directory perfbench/run.py builds into, so its run below reuses this
# build.
perfbench_build="${CARGO_TARGET_DIR:-.bench_build}/perfbench"
cmake -S perfbench -B "$perfbench_build" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$perfbench_build" -j "$jobs" --target perfbench perfbench_test
"$perfbench_build/perfbench_test" --gtest_brief=1 >/dev/null
echo "perfbench_test clean"
for workload in serve_hot serve_cold; do
  serve_out="$(mktemp)"
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 \
    --trace 0 > "$serve_out"
  python3 -c "
import json
with open('$serve_out') as f:
    doc = json.loads(f.read().splitlines()[-1])
assert doc['correct'] is True, doc
assert doc['failed'] == 0, doc
print('perfbench $workload:', doc['attempted'], 'requests, all correct')
"
  rm -f "$serve_out"
done

echo "== [5/8] kernel dispatch: scalar-tier suite + cross-tier bench identity =="
(cd build && POIPRIVACY_KERNEL=scalar ctest -L tier1 --output-on-failure -j "$jobs")
for threads in 1 2 8; do
  smoke_scalar="$(mktemp)"
  smoke_native="$(mktemp)"
  POIPRIVACY_KERNEL=scalar ./build/bench/poibench --all --smoke \
    --threads "$threads" 2>/dev/null > "$smoke_scalar"
  ./build/bench/poibench --all --smoke --threads "$threads" 2>/dev/null \
    > "$smoke_native"
  diff -u "$smoke_scalar" "$smoke_native"
  rm -f "$smoke_scalar" "$smoke_native"
  echo "poibench smoke: scalar == native tier at --threads $threads"
done

echo "== [6/8] ASan/UBSan build + kernel property suites per tier =="
cmake -B build-asan -S . -DPOIPRIVACY_SANITIZE=address >/dev/null
cmake --build build-asan -j "$jobs" --target \
  kernel_property_test fingerprint_property_test tile_window_property_test
for tier in native scalar; do
  env_prefix=()
  [ "$tier" = scalar ] && env_prefix=(env POIPRIVACY_KERNEL=scalar)
  for suite in kernel_property_test fingerprint_property_test \
               tile_window_property_test; do
    "${env_prefix[@]}" "./build-asan/tests/$suite" \
      --gtest_brief=1 >/dev/null
    echo "asan: $suite clean under $tier tier"
  done
done

echo "== [7/8] linkage engine: smoke identity at --threads 1/2/8 =="
linkage_ref="$(mktemp)"
./build/bench/poibench --scenario linkage_100k --smoke --seed 4242 \
  --threads 1 2>/dev/null | sed 's/threads=[0-9]*/threads=N/' > "$linkage_ref"
grep -q 'alloc check: pass' "$linkage_ref" \
  || { echo "check.sh: linkage_100k smoke lost the zero-alloc store fill" >&2; exit 1; }
for threads in 2 8; do
  linkage_t="$(mktemp)"
  ./build/bench/poibench --scenario linkage_100k --smoke --seed 4242 \
    --threads "$threads" 2>/dev/null \
    | sed 's/threads=[0-9]*/threads=N/' > "$linkage_t"
  diff -u "$linkage_ref" "$linkage_t"
  rm -f "$linkage_t"
  echo "linkage_100k smoke: --threads 1 == --threads $threads"
done
rm -f "$linkage_ref"
linkage_json="$(mktemp)"
./build-release/bench/poibench --scenario linkage_100k --smoke --seed 4242 \
  --threads 2 --json "$linkage_json" >/dev/null
python3 -c "
import json
with open('$linkage_json') as f:
    doc = json.load(f)
assert doc['scenario'] == 'linkage_100k' and doc['scales'], doc
for scale in doc['scales']:
    assert scale['users'] > 0 and scale['linkage_wall_s'] > 0, scale
    assert 0.0 <= scale['unique_rate'] <= 1.0, scale
print('linkage smoke:', len(doc['scales']), 'scale(s),',
      doc['releases'], 'releases, unique_rate',
      doc['scales'][-1]['unique_rate'])
"
rm -f "$linkage_json"

echo "== [8/8] stream_utility: smoke identity at --threads 1/2/8 =="
stream_ref="$(mktemp)"
./build/bench/poibench --scenario stream_utility --users 40 --epochs 16 \
  --roi 48 --seed 4242 --threads 1 2>/dev/null \
  | sed 's/threads=[0-9]*/threads=N/' > "$stream_ref"
for threads in 2 8; do
  stream_t="$(mktemp)"
  ./build/bench/poibench --scenario stream_utility --users 40 --epochs 16 \
    --roi 48 --seed 4242 --threads "$threads" 2>/dev/null \
    | sed 's/threads=[0-9]*/threads=N/' > "$stream_t"
  diff -u "$stream_ref" "$stream_t"
  rm -f "$stream_t"
  echo "stream_utility smoke: --threads 1 == --threads $threads"
done
rm -f "$stream_ref"

echo "check.sh: all gates passed"
