#!/usr/bin/env bash
#===- tools/ci.sh - full verification entry point -------------------------===#
#
# Builds and tests the repository in the three configurations that together
# cover the determinism disciplines:
#
#   debug    - Debug with the dynamic checkers (LVISH_CHECK=1): lattice
#              laws, ParST disjointness shadow map, effect audit, all as
#              ctest cases. Exports compile_commands.json for external
#              tooling.
#   release  - the tier-1 configuration (RelWithDebInfo, checkers
#              compiled out): what ROADMAP.md's verify command runs.
#   tsan     - ThreadSanitizer (auto-selects the locked deque). Telemetry
#              is compiled out here to prove the LVISH_TELEMETRY=0 build
#              stays healthy (empty snapshot struct, no-op counters).
#              Re-runs ContentionStressTest standalone to stress the
#              sharded waiter-table publish/probe protocol under TSan,
#              HandlerRaceTest for handler registration racing puts
#              (the gate-guarded handler list), DataStructuresTest and
#              LatticeLawsTest for the insert-only table's lock-free
#              probes racing its growth, and SpawnPathsTest and
#              ComplexityTest for the scope lists that forks copy across
#              workers and for the typed per-worker delta vectors that
#              plain handlers append to while a flush drains them, and
#              SchedulerTest and ServiceRuntimeTest for lazy waits
#              re-probed and published under the bucket locks puts take. A
#              second TSan tree, build-ci-tsan-telemetry, keeps
#              telemetry ON and builds and runs only TelemetryTest and
#              ComplexityTest, so the per-thread counter blocks (claimed
#              on a thread's first count, reused after it exits, summed
#              by snapshots from any thread) run under TSan too.
#   ubsan    - UndefinedBehaviorSanitizer (RelWithDebInfo), halting on
#              the first report. AddressSanitizer has no stage yet. The
#              batched handler flush calls plain callbacks in a loop, so
#              it no longer nests a frame per delta, and the full-size
#              components bench passes under ASan. But a long chain of
#              `co_await`s on synchronously completing children still
#              nests one resume frame per child there, because GCC drops
#              the symmetric-transfer tail call under ASan:
#              Stress.DeepSequentialAwaitChain (20,000 deep) overflows.
#              The stage waits for a `Par` trampoline.
#   bench    - smoke-runs every bench/ binary with --smoke --json and
#              validates the emitted lvish-bench-v1 documents with
#              tools/bench-report, then prints non-fatal bench-report
#              diffs of the committed bench/baselines/ pre/post JSON
#              pairs (micro_lvar_{pre,post}, micro_lvar_lean_{pre,post},
#              micro_lvar_table_{pre,post}, micro_lvar_putpath_{pre,post},
#              pbbs_handlers_{pre,post}, micro_lvar_forkjoin_{pre,post},
#              pbbs_forest_{pre,post}). Reuses the release build.
#   faults   - RelWithDebInfo with the fault-injection harness armed
#              (LVISH_FAULTS=ON): FaultStressTest drives seeded task
#              failures, delays, and allocation-failure shims across >= 8
#              seeds and several worker counts, asserting the contained
#              outcomes are identical, then the full suite re-runs to
#              prove injection hooks do not perturb passing programs.
#   explore  - controlled-schedule smoke (src/explore/): re-runs
#              ExploreTest + ExploreRegressionTest + the explored
#              determinism sweeps under a reduced schedule budget
#              (LVISH_EXPLORE_SCHEDULES). Reuses the release build.
#   pbbs     - the PBBS-on-LVars problem suite (src/pbbs/): golden
#              matrix vs the sequential references under Debug +
#              LVISH_CHECK (reuses the debug tree), explored determinism
#              sweeps + pinned replay corpus under a reduced schedule
#              budget, and smoke-runs of the four bench_pbbs_* benches
#              with --json + bench-report validation. Reuses the debug
#              and release builds.
#   streams  - streaming LVars (src/data/Stream.h): re-runs StreamTest
#              under Debug + LVISH_CHECK (join-law sampling on the prefix
#              lattice) and under ThreadSanitizer (the backpressure
#              park/credit protocol is where a race would hide), replays
#              the pinned backpressure corpus under a reduced schedule
#              budget, and smoke-runs the two streaming pipeline benches
#              with --json + bench-report validation and a non-fatal
#              diff against the committed baselines. Reuses the debug,
#              tsan, and release builds.
#   service  - multi-tenant service runtime: re-runs ServiceRuntimeTest
#              under ThreadSanitizer (cross-session isolation is where a
#              data race would hide), smoke-runs the open-loop traffic
#              bench with --json, validates the document, and prints a
#              non-fatal bench-report diff against the committed
#              bench/baselines/service_traffic.json. Reuses the tsan and
#              release builds.
#   chaos    - service robustness under attack: re-runs ServiceChaosTest
#              (seeded mid-flight session dooms, admission delay
#              injection, drain-vs-doom races) and ServiceRobustnessTest
#              (budgets, deadlines, shed, drain) under ThreadSanitizer,
#              then smoke-runs the traffic bench's overload phase and
#              prints a non-fatal bench-report diff against the committed
#              baseline. Reuses the tsan and release builds.
#   analyze  - scope-aware static analysis (tools/analyze/): runs
#              lvish-analyze (the ported lvish-lint token rules,
#              ctx-escape, handler-cycle, park-under-lock) over src/,
#              bench/, examples/, and tests/ against the committed
#              tools/analyze/baseline.json, failing on any non-baselined
#              finding. Effect levels are the compiler's check, not the
#              analyzer's. Builds only the lvish-analyze target, in the
#              release tree.
#   coverage - Debug + LVISH_COVERAGE=ON (gcov instrumentation): runs the
#              suite and writes a line-coverage summary artifact to
#              build-ci-coverage/coverage-summary.txt. Not in the default
#              stage list (instrumented builds are slow).
#
# Usage: tools/ci.sh
#        [debug|release|tsan|ubsan|bench|faults|explore|pbbs|streams|
#         service|chaos|analyze|coverage]...
#        (default: debug release tsan ubsan bench faults explore pbbs
#         streams service chaos analyze)
#
#===------------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)
STAGES=("$@")
[ ${#STAGES[@]} -eq 0 ] && \
  STAGES=(debug release tsan ubsan bench faults explore pbbs streams \
          service chaos analyze)

run_stage() {
  local name=$1; shift
  local dir="build-ci-$name"
  echo "==== [$name] configure ===="
  cmake -B "$dir" -S . "$@" > "$dir.cfg.log" 2>&1 || {
    cat "$dir.cfg.log"; return 1; }
  echo "==== [$name] build ===="
  cmake --build "$dir" -j "$JOBS"
  echo "==== [$name] ctest ===="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

for stage in "${STAGES[@]}"; do
  case "$stage" in
    debug)
      run_stage debug -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
      ;;
    release)
      run_stage release -DCMAKE_BUILD_TYPE=RelWithDebInfo
      ;;
    tsan)
      run_stage tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DLVISH_SANITIZE=thread -DLVISH_TELEMETRY=OFF
      echo "==== [tsan] contended waiter-table stress ===="
      # Re-run the sharded put/wake stress on its own: the suite run above
      # shares the machine across tests, this run gives the publish/probe
      # protocol an uncontended-by-other-tests pass under TSan.
      ./build-ci-tsan/tests/ContentionStressTest
      echo "==== [tsan] PBBS golden matrix ===="
      # The worker-count x steal-seed golden matrix doubles as a race
      # hunt: every put/bump/freeze path of the four PBBS ports runs
      # under TSan against the sequential references.
      ./build-ci-tsan/tests/PbbsGoldenTest
      echo "==== [tsan] handler registration vs. live puts ===="
      # The handler list is guarded by the footnote-6 gate alone; TSan
      # checks the gate orders every append against every delivery, and
      # against table growth, which takes the same gate's slow side.
      ./build-ci-tsan/tests/HandlerRaceTest
      echo "==== [tsan] insert-only table: lock-free probes vs. growth ===="
      # ISet/IMap/MinMap storage claims slots with a CAS and is read with
      # no lock while another thread may be copying it into a grown
      # array; the table's race cases and the lattice-law sweeps get a
      # pass of their own.
      ./build-ci-tsan/tests/DataStructuresTest
      ./build-ci-tsan/tests/LatticeLawsTest
      echo "==== [tsan] spawn paths and scope lists ===="
      # Scope lists are shared_ptr vectors copied on every fork, often on
      # one worker while another retires a task holding the same scopes;
      # a race or a leak there would hide from the suite run above.
      ./build-ci-tsan/tests/SpawnPathsTest
      ./build-ci-tsan/tests/ComplexityTest
      echo "==== [tsan] lazy waits: re-probe, publish, cancel ===="
      # A missed get may wait on its worker's lazy stack and be published
      # later, under the same bucket lock a racing put takes; the lazy-wait
      # cases and the recycled-task comparison get a pass of their own.
      ./build-ci-tsan/tests/SchedulerTest
      ./build-ci-tsan/tests/ServiceRuntimeTest
      echo "==== [tsan] per-thread telemetry counters (telemetry ON) ===="
      # The suite above runs with telemetry compiled out; this tree keeps
      # it in, so block claim, release and reuse and the snapshot's reads
      # of blocks other threads are writing get a TSan pass.
      cmake -B build-ci-tsan-telemetry -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DLVISH_SANITIZE=thread -DLVISH_TELEMETRY=ON \
        > build-ci-tsan-telemetry.cfg.log 2>&1 || {
        cat build-ci-tsan-telemetry.cfg.log; exit 1; }
      cmake --build build-ci-tsan-telemetry -j "$JOBS" \
        --target TelemetryTest ComplexityTest
      ./build-ci-tsan-telemetry/tests/TelemetryTest
      ./build-ci-tsan-telemetry/tests/ComplexityTest
      ;;
    ubsan)
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        run_stage ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DLVISH_SANITIZE=undefined
      ;;
    bench)
      # Reuse the release tree when it exists; otherwise build it.
      if [ ! -x build-ci-release/tools/bench-report ]; then
        echo "==== [bench] building release tree ===="
        cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          > build-ci-release.cfg.log 2>&1 || {
          cat build-ci-release.cfg.log; exit 1; }
        cmake --build build-ci-release -j "$JOBS"
      fi
      echo "==== [bench] smoke-running benches with --json ===="
      mkdir -p build-ci-release/bench-json
      for b in build-ci-release/bench/bench_*; do
        name=$(basename "$b")
        json="build-ci-release/bench-json/BENCH_${name#bench_}.json"
        echo "---- $name --smoke --json $json ----"
        "$b" --smoke --json "$json"
      done
      echo "==== [bench] validating emitted JSON ===="
      ./build-ci-release/tools/bench-report validate \
        build-ci-release/bench-json/*.json
      echo "==== [bench] baseline drift report (informational) ===="
      # Non-fatal: prints the committed pre/post sharded-hot-path medians
      # (bench/baselines/, full-rep runs) so a reviewer sees the tracked
      # delta without this stage depending on machine-load-sensitive
      # numbers. Smoke-run JSONs above use reduced sizes and are not
      # comparable to the committed baselines.
      ./build-ci-release/tools/bench-report diff \
        bench/baselines/micro_lvar_pre.json \
        bench/baselines/micro_lvar_post.json \
        || echo "bench-report diff failed (non-fatal)"
      # The lean fork-join pair: gate-free IVars, recycled tasks,
      # probe-before-publish gets, per-session task registries.
      ./build-ci-release/tools/bench-report diff \
        bench/baselines/micro_lvar_lean_pre.json \
        bench/baselines/micro_lvar_lean_post.json \
        || echo "bench-report diff failed (non-fatal)"
      # The insert-only table under ISet/IMap/MinMap: lock-free probes,
      # repeats outside the gate, growth on the gate's slow side.
      ./build-ci-release/tools/bench-report diff \
        bench/baselines/micro_lvar_table_pre.json \
        bench/baselines/micro_lvar_table_post.json \
        || echo "bench-report diff failed (non-fatal)"
      # The put path at the cost of its join: per-thread telemetry blocks
      # (an unlocked add per count), plain-call parallelFor leaves.
      ./build-ci-release/tools/bench-report diff \
        bench/baselines/micro_lvar_putpath_pre.json \
        bench/baselines/micro_lvar_putpath_post.json \
        || echo "bench-report diff failed (non-fatal)"
      # Plain handlers batched per worker and called in the flush loop:
      # bench_pbbs_bfs's bfsReach series and bench_pbbs_components'
      # labelprop series.
      ./build-ci-release/tools/bench-report diff \
        bench/baselines/pbbs_handlers_pre.json \
        bench/baselines/pbbs_handlers_post.json \
        || echo "bench-report diff failed (non-fatal)"
      # Fork-join at one worker without a park or an aligned allocation:
      # lazy waits and lean LVars (fork_join_loop and ivar_alloc series).
      ./build-ci-release/tools/bench-report diff \
        bench/baselines/micro_lvar_forkjoin_pre.json \
        bench/baselines/micro_lvar_forkjoin_post.json \
        || echo "bench-report diff failed (non-fatal)"
      # Spanning forest by deterministic reservations instead of Boruvka
      # rounds (bench_pbbs_forest's lvar series).
      ./build-ci-release/tools/bench-report diff \
        bench/baselines/pbbs_forest_pre.json \
        bench/baselines/pbbs_forest_post.json \
        || echo "bench-report diff failed (non-fatal)"
      ;;
    faults)
      run_stage faults -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLVISH_FAULTS=ON
      echo "==== [faults] seeded fault-injection stress ===="
      ./build-ci-faults/tests/FaultStressTest
      ;;
    explore)
      # Reuse the release tree when it exists; otherwise build it.
      if [ ! -x build-ci-release/tests/ExploreTest ]; then
        echo "==== [explore] building release tree ===="
        cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          > build-ci-release.cfg.log 2>&1 || {
          cat build-ci-release.cfg.log; exit 1; }
        cmake --build build-ci-release -j "$JOBS"
      fi
      echo "==== [explore] schedule-exploration smoke (budget 100) ===="
      LVISH_EXPLORE_SCHEDULES=100 ./build-ci-release/tests/ExploreTest
      LVISH_EXPLORE_SCHEDULES=100 ./build-ci-release/tests/ExploreRegressionTest
      LVISH_EXPLORE_SCHEDULES=100 ./build-ci-release/tests/DeterminismStressTest \
        --gtest_filter='DeterminismExplored.*'
      ./build-ci-release/tests/ContentionStressTest \
        --gtest_filter='ContentionStress.Explored*'
      ;;
    pbbs)
      # Golden tests under the Debug dynamic checkers: reuse the debug
      # tree when it exists; otherwise build it.
      if [ ! -x build-ci-debug/tests/PbbsGoldenTest ]; then
        echo "==== [pbbs] building debug tree ===="
        cmake -B build-ci-debug -S . -DCMAKE_BUILD_TYPE=Debug \
          > build-ci-debug.cfg.log 2>&1 || {
          cat build-ci-debug.cfg.log; exit 1; }
        cmake --build build-ci-debug -j "$JOBS"
      fi
      echo "==== [pbbs] golden matrix under Debug + LVISH_CHECK ===="
      LVISH_CHECK=1 ./build-ci-debug/tests/PbbsGoldenTest
      echo "==== [pbbs] explored sweeps + pinned replay corpus ===="
      LVISH_EXPLORE_SCHEDULES=100 ./build-ci-debug/tests/PbbsExploreTest
      # Bench smoke on the release tree; (re)build when the tree or the
      # pbbs bench binaries are missing (a reused tree may predate them).
      if [ ! -x build-ci-release/bench/bench_pbbs_bfs ]; then
        echo "==== [pbbs] building release tree ===="
        cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          > build-ci-release.cfg.log 2>&1 || {
          cat build-ci-release.cfg.log; exit 1; }
        cmake --build build-ci-release -j "$JOBS"
      fi
      echo "==== [pbbs] bench smoke with --json ===="
      mkdir -p build-ci-release/bench-json
      for b in build-ci-release/bench/bench_pbbs_*; do
        name=$(basename "$b")
        json="build-ci-release/bench-json/BENCH_${name#bench_}.json"
        echo "---- $name --smoke --json $json ----"
        "$b" --smoke --json "$json"
      done
      ./build-ci-release/tools/bench-report validate \
        build-ci-release/bench-json/BENCH_pbbs_*.json
      echo "==== [pbbs] baseline drift report (informational) ===="
      # Non-fatal: smoke sizes are not comparable to the committed
      # full-rep baselines; the diff (new/old-only rows included) is for
      # reviewers, not a gate.
      for p in bfs components histogram forest; do
        ./build-ci-release/tools/bench-report diff \
          "bench/baselines/pbbs_$p.json" \
          "build-ci-release/bench-json/BENCH_pbbs_$p.json" \
          || echo "bench-report diff failed (non-fatal)"
      done
      ;;
    streams)
      # Checked pass: reuse the debug tree when it exists; otherwise
      # build it.
      if [ ! -x build-ci-debug/tests/StreamTest ]; then
        echo "==== [streams] building debug tree ===="
        cmake -B build-ci-debug -S . -DCMAKE_BUILD_TYPE=Debug \
          > build-ci-debug.cfg.log 2>&1 || {
          cat build-ci-debug.cfg.log; exit 1; }
        cmake --build build-ci-debug -j "$JOBS"
      fi
      echo "==== [streams] StreamTest under Debug + LVISH_CHECK ===="
      # The dynamic checkers sample join laws on every appendAt/advance;
      # the explored sweeps and the pinned backpressure replay run here
      # under a reduced schedule budget.
      LVISH_CHECK=1 LVISH_EXPLORE_SCHEDULES=100 \
        ./build-ci-debug/tests/StreamTest
      # Race hunt: reuse the tsan tree when it exists; otherwise build it.
      if [ ! -x build-ci-tsan/tests/StreamTest ]; then
        echo "==== [streams] building tsan tree ===="
        cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DLVISH_SANITIZE=thread -DLVISH_TELEMETRY=OFF \
          > build-ci-tsan.cfg.log 2>&1 || {
          cat build-ci-tsan.cfg.log; exit 1; }
        cmake --build build-ci-tsan -j "$JOBS"
      fi
      echo "==== [streams] StreamTest under ThreadSanitizer ===="
      # The producer park / consumer credit handshake (key bucket 1, the
      # publish-then-recheck Dekker protocol) is exactly where a missed
      # fence would hide from the single-threaded explored runs.
      ./build-ci-tsan/tests/StreamTest
      # Bench smoke on the release tree; (re)build when the tree or the
      # stream bench binaries are missing (a reused tree may predate
      # them).
      if [ ! -x build-ci-release/bench/bench_pipeline_etl ]; then
        echo "==== [streams] building release tree ===="
        cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          > build-ci-release.cfg.log 2>&1 || {
          cat build-ci-release.cfg.log; exit 1; }
        cmake --build build-ci-release -j "$JOBS"
      fi
      echo "==== [streams] pipeline bench smoke with --json ===="
      mkdir -p build-ci-release/bench-json
      for b in build-ci-release/bench/bench_pipeline_etl \
               build-ci-release/bench/bench_stream_wordcount; do
        name=$(basename "$b")
        json="build-ci-release/bench-json/BENCH_${name#bench_}.json"
        echo "---- $name --smoke --json $json ----"
        "$b" --smoke --json "$json"
      done
      ./build-ci-release/tools/bench-report validate \
        build-ci-release/bench-json/BENCH_pipeline_etl.json \
        build-ci-release/bench-json/BENCH_stream_wordcount.json
      echo "==== [streams] baseline drift report (informational) ===="
      # Non-fatal: smoke sizes are not comparable to the committed
      # full-rep baselines; the diff is for reviewers, not a gate.
      for p in pipeline_etl stream_wordcount; do
        ./build-ci-release/tools/bench-report diff \
          "bench/baselines/$p.json" \
          "build-ci-release/bench-json/BENCH_$p.json" \
          || echo "bench-report diff failed (non-fatal)"
      done
      ;;
    service)
      # Reuse the tsan tree when it exists; otherwise build it.
      if [ ! -x build-ci-tsan/tests/ServiceRuntimeTest ]; then
        echo "==== [service] building tsan tree ===="
        cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DLVISH_SANITIZE=thread -DLVISH_TELEMETRY=OFF \
          > build-ci-tsan.cfg.log 2>&1 || {
          cat build-ci-tsan.cfg.log; exit 1; }
        cmake --build build-ci-tsan -j "$JOBS"
      fi
      echo "==== [service] ServiceRuntimeTest under ThreadSanitizer ===="
      # Concurrent sessions share the waiter table, the per-session inject
      # queues, and the finalizer thread - the exact surfaces where a
      # cross-session data race would hide from the single-session suite.
      ./build-ci-tsan/tests/ServiceRuntimeTest
      # Reuse the release tree for the traffic bench.
      if [ ! -x build-ci-release/bench/bench_service_traffic ]; then
        echo "==== [service] building release tree ===="
        cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          > build-ci-release.cfg.log 2>&1 || {
          cat build-ci-release.cfg.log; exit 1; }
        cmake --build build-ci-release -j "$JOBS"
      fi
      echo "==== [service] open-loop traffic smoke ===="
      mkdir -p build-ci-release/bench-json
      ./build-ci-release/bench/bench_service_traffic --smoke \
        --json build-ci-release/bench-json/BENCH_service_traffic.json
      ./build-ci-release/tools/bench-report validate \
        build-ci-release/bench-json/BENCH_service_traffic.json
      echo "==== [service] baseline drift report (informational) ===="
      # Non-fatal, and the smoke run uses reduced sizes - the diff shows a
      # reviewer the tracked latency/throughput columns next to the
      # committed full-rep baseline without gating on load-sensitive
      # numbers.
      ./build-ci-release/tools/bench-report diff \
        bench/baselines/service_traffic.json \
        build-ci-release/bench-json/BENCH_service_traffic.json \
        || echo "bench-report diff failed (non-fatal)"
      ;;
    chaos)
      # Reuse the tsan tree when it exists; otherwise build it.
      if [ ! -x build-ci-tsan/tests/ServiceChaosTest ]; then
        echo "==== [chaos] building tsan tree ===="
        cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DLVISH_SANITIZE=thread -DLVISH_TELEMETRY=OFF \
          > build-ci-tsan.cfg.log 2>&1 || {
          cat build-ci-tsan.cfg.log; exit 1; }
        cmake --build build-ci-tsan -j "$JOBS"
      fi
      echo "==== [chaos] ServiceChaosTest under ThreadSanitizer ===="
      # The doom-delivery thread vs. finalizer vs. admission machinery is
      # exactly where a shutdown/cancellation race would hide; the test's
      # assertions are schedule-independent so TSan timing skew is fine.
      ./build-ci-tsan/tests/ServiceChaosTest
      echo "==== [chaos] ServiceRobustnessTest under ThreadSanitizer ===="
      ./build-ci-tsan/tests/ServiceRobustnessTest
      # Reuse the release tree for the overload bench smoke.
      if [ ! -x build-ci-release/bench/bench_service_traffic ]; then
        echo "==== [chaos] building release tree ===="
        cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          > build-ci-release.cfg.log 2>&1 || {
          cat build-ci-release.cfg.log; exit 1; }
        cmake --build build-ci-release -j "$JOBS"
      fi
      echo "==== [chaos] overload bench smoke ===="
      mkdir -p build-ci-release/bench-json
      ./build-ci-release/bench/bench_service_traffic --smoke \
        --json build-ci-release/bench-json/BENCH_service_traffic.json
      ./build-ci-release/tools/bench-report validate \
        build-ci-release/bench-json/BENCH_service_traffic.json
      echo "==== [chaos] overload baseline drift report (informational) ===="
      # Non-fatal: refusal counts (shed/deadline) measure real wall time
      # and drift with machine load; the diff is for reviewers, not a gate.
      ./build-ci-release/tools/bench-report diff \
        bench/baselines/service_traffic.json \
        build-ci-release/bench-json/BENCH_service_traffic.json \
        || echo "bench-report diff failed (non-fatal)"
      ;;
    analyze)
      # Reuse the release tree when it exists; otherwise configure it. Only
      # the analyzer itself is built here.
      if [ ! -f build-ci-release/CMakeCache.txt ]; then
        echo "==== [analyze] configuring release tree ===="
        cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          > build-ci-release.cfg.log 2>&1 || {
          cat build-ci-release.cfg.log; exit 1; }
      fi
      cmake --build build-ci-release --target lvish-analyze -j "$JOBS"
      echo "==== [analyze] lvish-analyze over src/ bench/ examples/ tests/ ===="
      ./build-ci-release/tools/lvish-analyze \
        --baseline tools/analyze/baseline.json \
        src bench examples tests
      ;;
    coverage)
      run_stage coverage -DCMAKE_BUILD_TYPE=Debug -DLVISH_COVERAGE=ON
      echo "==== [coverage] line-coverage summary ===="
      if command -v gcovr >/dev/null 2>&1; then
        gcovr --root . --filter 'src/' --print-summary \
          build-ci-coverage | tee build-ci-coverage/coverage-summary.txt
      else
        # Fallback without gcovr: aggregate gcov's per-file line stats for
        # src/ objects into one covered/total percentage.
        ( cd build-ci-coverage
          find . -name '*.gcda' -path '*src*' | while read -r g; do
            gcov -n -o "$(dirname "$g")" "$g" 2>/dev/null
          done | awk '
            /^File/ { f=$2; insrc = (f ~ /src\//) }
            insrc && /^Lines executed:/ {
              split($0, a, ":"); split(a[2], b, "% of ")
              covered += b[1] / 100 * b[2]; total += b[2]
            }
            END {
              if (total > 0)
                printf "lines: %.0f/%.0f (%.1f%%)\n",
                       covered, total, 100 * covered / total
              else
                print "lines: no gcov data found"
            }' > coverage-summary.txt
          cat coverage-summary.txt )
      fi
      ;;
    *)
      echo "unknown stage '$stage' (expected debug, release, tsan, ubsan," \
           "bench, faults, explore, pbbs, streams, service, chaos, analyze," \
           "or coverage)" >&2
      exit 2
      ;;
  esac
done

echo "ci.sh: all stages passed (${STAGES[*]})"
