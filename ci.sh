#!/bin/bash
# CI entry point: builds and tests the three configurations the project
# promises to keep green —
#   release   plain Release, all targets (tests + benches + examples),
#             bench smoke gates and the perfbench self-test
#   asan      ASan + UBSan, tests only
#   tsan      TSan, tests only (failover/scrub/scan concurrency races)
#
# Plus one opt-in stage (never part of the default set):
#   chaos     ASan build of the resource-exhaustion fault matrix plus
#             the coordinator transport-fault matrix, run once per seed
#             in a fixed schedule. A failing run prints the seed; rerun
#             just it with TRASS_CHAOS_SEED=<seed>.
#
# Usage: ci.sh [release|asan|tsan|chaos ...]   (default: release asan tsan)
#
# Each configuration gets its own build tree under build-ci/ so a local
# developer build/ is never clobbered. Fails fast on the first broken
# configuration.
set -euo pipefail
cd "$(dirname "$0")"

configs=("$@")
if [ "${#configs[@]}" -eq 0 ]; then
  configs=(release asan tsan)
fi

jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1"
  shift
  local dir="build-ci/$name"
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$jobs"
  echo "=== [$name] ctest ==="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  echo "=== [$name] OK ==="
}

for config in "${configs[@]}"; do
  case "$config" in
    release)
      run_config release
      echo "=== [release] bench smoke ==="
      build-ci/release/bench/bench_micro_similarity --smoke
      build-ci/release/bench/bench_fig09_threshold --smoke
      build-ci/release/bench/bench_fig10_topk --smoke
      # Filter-tier gate: byte-identical answers filter-on vs -off and
      # the >= 5x sparse-region reduction (non-zero exit on either).
      build-ci/release/bench/bench_fig11_pruning --smoke
      # KV-engine mixed-load gate: row counts identical with background
      # compaction + readahead on vs off, readahead actually used, the
      # background thread actually compacted (non-zero exit on any).
      build-ci/release/bench/bench_kv_mixed --smoke
      # Ingest gate: write path + sustained ingest/query mix complete
      # with zero failed queries while compactions run in background.
      build-ci/release/bench/bench_ingest --smoke
      echo "=== [release] bench smoke OK ==="
      # The end-to-end benchmark builds from its own CMake project
      # against the public QueryMetrics / IoStats::Snapshot API; its
      # self-test builds it and checks each workload's answers.
      echo "=== [release] perfbench self-test ==="
      python3 perfbench/run.py --self-test
      ;;
    asan)
      run_config asan \
        -DTRASS_SANITIZE=address,undefined \
        -DTRASS_BUILD_BENCHMARKS=OFF -DTRASS_BUILD_EXAMPLES=OFF
      ;;
    tsan)
      run_config tsan \
        -DTRASS_SANITIZE=thread \
        -DTRASS_BUILD_BENCHMARKS=OFF -DTRASS_BUILD_EXAMPLES=OFF
      ;;
    chaos)
      dir="build-ci/chaos"
      echo "=== [chaos] configure ==="
      cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release \
        -DTRASS_SANITIZE=address,undefined \
        -DTRASS_BUILD_BENCHMARKS=OFF -DTRASS_BUILD_EXAMPLES=OFF
      echo "=== [chaos] build ==="
      cmake --build "$dir" -j "$jobs" \
        --target resource_exhaustion_test coordinator_test filter_tier_test
      # Fixed seed schedule so CI runs are comparable across commits;
      # each seed drives one randomized fault/budget/crash trial of the
      # store matrix, one randomized drop/delay/duplicate/error/wedge
      # schedule of the coordinator read matrix, and one randomized
      # kill/wedge-a-replica schedule of the coordinator write matrix
      # (quorum acks + hinted handoff + replay: no acked write may be
      # lost, no strict query may go partial), and one crash-mid-ingest
      # schedule of the filter tier (the reopened tier must agree with
      # whatever the WAL recovered). The ResourceExhaustionChaos matrix
      # also carries the crash-during-background-compaction schedule
      # (filesystem severed while the compaction thread is mid-merge;
      # synced rows must survive the reopen).
      seeds=(20240808 1 7 42 1337 99991 2718281 31415926)
      for seed in "${seeds[@]}"; do
        for matrix in \
            "resource_exhaustion_test ResourceExhaustionChaos.*" \
            "coordinator_test CoordinatorChaos.*" \
            "coordinator_test CoordinatorWriteChaos.*" \
            "filter_tier_test FilterChaos.*"; do
          binary="${matrix%% *}"
          filter="${matrix#* }"
          echo "=== [chaos] $binary seed $seed ==="
          if ! TRASS_CHAOS_SEED="$seed" "$dir/tests/$binary" \
              --gtest_filter="$filter"; then
            echo "ci.sh: chaos schedule failed at seed $seed ($binary)" >&2
            echo "ci.sh: reproduce with: TRASS_CHAOS_SEED=$seed $dir/tests/$binary --gtest_filter='$filter'" >&2
            exit 1
          fi
        done
      done
      echo "=== [chaos] OK ==="
      ;;
    *)
      echo "ci.sh: unknown configuration: $config (want release|asan|tsan|chaos)" >&2
      exit 1
      ;;
  esac
done
echo "ci.sh: all configurations green"
