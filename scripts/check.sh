#!/usr/bin/env bash
# Tier-1 verification across sanitizer configurations.
#
# Runs the full test suite three times:
#   plain    - the default RelWithDebInfo build (the tier-1 gate)
#   thread   - ThreadSanitizer        (-DPARTIX_SANITIZE=thread)
#   address  - ASan + UBSan composite (-DPARTIX_SANITIZE=address)
#
# Usage: scripts/check.sh [plain|thread|address]...
#   No arguments runs all three. Build trees are build-check-<config>/
#   so an existing build/ directory is left untouched.
set -euo pipefail

cd "$(dirname "$0")/.."

configs=("$@")
if [ ${#configs[@]} -eq 0 ]; then
  configs=(plain thread address)
fi

jobs=$(nproc 2>/dev/null || echo 2)

echo "== markdown link check =="
scripts/check_links.sh

for config in "${configs[@]}"; do
  dir="build-check-${config}"
  flags=()
  case "$config" in
    plain) ;;
    thread) flags+=(-DPARTIX_SANITIZE=thread) ;;
    address) flags+=(-DPARTIX_SANITIZE=address) ;;
    *)
      echo "unknown config: $config (want plain|thread|address)" >&2
      exit 2
      ;;
  esac
  echo "== ${config}: configure + build (${dir}) =="
  cmake -B "$dir" -S . "${flags[@]}" >/dev/null
  cmake --build "$dir" -j "$jobs"
  echo "== ${config}: ctest =="
  # --timeout keeps a hung test (deadlock under TSan, runaway retry loop)
  # from stalling CI forever; 300s is ~100x the healthy full-suite time.
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" --timeout 300
  echo "== ${config}: concurrent scheduler, streaming and morsel stress (explicit) =="
  # Re-run the multi-threaded admission/execution tests by name so a
  # filter change in the suite can never silently drop the concurrency
  # coverage this config (especially thread) exists for. Every sub-query
  # crosses threads through the streaming BlockChannel, and its engine
  # evaluation forks intra-node morsels onto the shared pool by default,
  # so the streaming and morsel tests are part of that coverage. The
  # structural tests include the concurrent label-range scans over shared
  # sealed documents.
  "$dir"/tests/partix_tests \
    --gtest_filter='*Concurrent*:*Scheduler*:*Fairness*:*Streaming*:*Morsel*:*Structural*'
  if [ "$config" = plain ]; then
    echo "== ${config}: memory density smoke =="
    # Gates the memory-governance subsystem: >= 30% fewer allocations per
    # parsed document with the arena pool, zero failures under a tiny
    # budget, byte-identical answers with governance on vs off.
    (cd "$dir"/bench && PARTIX_SMOKE=1 ./memory_density)
    echo "== ${config}: intra-node morsel smoke =="
    # Identity gate for intra-node morsel parallelism: localized queries
    # must answer byte-identically at morsels 1/2/4/8, and every level
    # >= 2 must actually run morsels (the 2x speedup gate runs only in
    # full mode on multi-core hosts).
    (cd "$dir"/bench && PARTIX_SMOKE=1 ./intra_node_speedup)
    echo "== ${config}: structural join smoke =="
    # Identity gate for the label index: every query answers
    # byte-identically with label-range scans on vs off, on the vertical
    # workload and on the engine-level axis steps, and label-merge
    # reconstruction equals the value join.
    (cd "$dir"/bench && PARTIX_SMOKE=1 ./structural_join)
    echo "== ${config}: streaming TTFB smoke =="
    # Gates the streaming result pipeline: byte-identical answers
    # streaming vs the barrier (the same pipeline holding the answer
    # until compose ends), streaming TTFB p50 strictly below the barrier
    # wall on the union workload, and peak governed bytes below 80% of
    # the double-charge baseline.
    (cd "$dir"/bench && PARTIX_SMOKE=1 ./streaming_ttfb)
    echo "== ${config}: concurrent QPS smoke =="
    # Gates concurrent execution through one scheduler: byte-identical
    # answers under concurrency, and the QPS scaling floor against the
    # same clients serialized behind one slot.
    (cd "$dir"/bench && PARTIX_SMOKE=1 ./concurrent_qps)
    echo "== ${config}: self-healing chaos smoke =="
    # Gates fault tolerance end to end: under node failures and 25%
    # response corruption every corrupt block must be caught by its
    # digest, and the answers must stay byte-identical.
    (cd "$dir"/bench && PARTIX_SMOKE=1 ./failover_bench)
  fi
done

echo "== all configs passed: ${configs[*]} =="
