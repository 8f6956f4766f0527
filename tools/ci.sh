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
#   tsan     - ThreadSanitizer, on the same lock-free Chase-Lev deque
#              as every other build, with telemetry compiled in as in
#              every build: the per-thread counter blocks (claimed on a
#              thread's first count, reused after it exits, summed by
#              snapshots from any thread) run under TSan in the suite run.
#              Re-runs ContentionStressTest standalone to stress the
#              sharded waiter-table publish/probe protocol under TSan,
#              HandlerRaceTest for handler registration racing puts
#              (the gate-guarded handler list), DataStructuresTest and
#              LatticeLawsTest for the insert-only table's lock-free
#              probes racing its growth, and SpawnPathsTest and
#              ComplexityTest for the scope lists that forks copy across
#              workers and for the per-slot delta vectors that each plain
#              handler registration appends to while its flush drains
#              them, and SchedulerTest and ServiceRuntimeTest for lazy waits
#              re-probed and published under the bucket locks puts take.
#              TSan does not model atomic_thread_fence (GCC prints a
#              -Wtsan warning for each one), so LVarBase's
#              publish-then-recheck (a seq_cst fence between the waiter
#              push and the state recheck) and the deque's last-item
#              pop/steal race are checked only by the stress tests'
#              outcome checks, not by TSan.
#   ubsan    - UndefinedBehaviorSanitizer (RelWithDebInfo), halting on
#              the first report.
#   asan     - AddressSanitizer with LeakSanitizer (RelWithDebInfo): runs
#              the binaries that check handler, flush and task lifetimes -
#              SpawnPathsTest (pending handler and flush tasks pin their
#              pool and registration after the program drops them),
#              HandlerRaceTest, CoreParTest, DataStructuresTest and
#              TransformersTest (memo jobs that outlive a cancelled
#              branch), and the paths where a task's storage dies with
#              its root frame: ServiceRuntimeTest and SchedulerTest (parked
#              tasks reaped at finishSession, cancelled tasks retired
#              before they run), ExploreTest (the same under controlled
#              schedules), ServiceRobustnessTest (sessions killed by
#              their step budget), FaultStressTest (injected failures
#              unwinding a FaultSignal through coroutine frames and
#              retiring the poisoned task) and ServiceChaosTest (chaos
#              dooms killing sessions mid-flight). The full suite waits
#              for a `Par` trampoline (ROADMAP): a long chain of
#              `co_await`s on synchronously completing children nests one
#              resume frame per child under ASan, because GCC drops the
#              symmetric-transfer tail call there, and
#              Stress.DeepSequentialAwaitChain (20,000 deep) overflows
#              the stack.
#   bench    - smoke-runs every bench/ binary with --smoke --json and
#              validates the emitted lvish-bench-v1 documents with
#              tools/bench-report, then prints non-fatal bench-report
#              diffs of every committed bench/baselines/*_pre.json
#              against its *_post.json twin. Reuses the release build.
#   faults   - seeded fault injection (src/fault/): re-runs
#              FaultStressTest, which drives task failures, delays, and
#              allocation-failure shims across >= 8 seeds and several
#              worker counts, asserting the contained outcomes are
#              identical, and ServiceChaosTest. The hooks are compiled
#              into every build and armed only by an installed FaultPlan,
#              so every other stage's suite runs with them too. Reuses
#              the release build.
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
#              ctx-escape, handler-cycle, park-under-lock,
#              co-await-temporary) over src/,
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
#        [debug|release|tsan|ubsan|asan|bench|faults|explore|pbbs|streams|
#         service|chaos|analyze|coverage]...
#        (default: debug release tsan ubsan asan bench faults explore pbbs
#         streams service chaos analyze)
#
#===------------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)
STAGES=("$@")
[ ${#STAGES[@]} -eq 0 ] && \
  STAGES=(debug release tsan ubsan asan bench faults explore pbbs \
          streams service chaos analyze)

# ensure_tree NAME [BUILD-ARGS...]: configures build-ci-NAME with its
# flags (spelled here once; re-applied to an existing tree, which is
# cheap), then runs an incremental build; BUILD-ARGS (e.g. --target X) go
# to cmake --build. Every tree but coverage builds warning-free under
# -Werror. The tsan tree exempts -Wtsan: TSan does not model
# atomic_thread_fence, and GCC warns once per fence.
ensure_tree() {
  local name=$1; shift
  local dir="build-ci-$name"
  local flags
  case "$name" in
    debug)    flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=-Werror
                     -DCMAKE_EXPORT_COMPILE_COMMANDS=ON) ;;
    release)  flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
                     -DCMAKE_CXX_FLAGS=-Werror) ;;
    tsan)     flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
                     "-DCMAKE_CXX_FLAGS=-Werror -Wno-error=tsan"
                     -DLVISH_SANITIZE=thread) ;;
    ubsan)    flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
                     -DCMAKE_CXX_FLAGS=-Werror
                     -DLVISH_SANITIZE=undefined) ;;
    asan)     flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
                     -DCMAKE_CXX_FLAGS=-Werror
                     -DLVISH_SANITIZE=address) ;;
    coverage) flags=(-DCMAKE_BUILD_TYPE=Debug -DLVISH_COVERAGE=ON) ;;
  esac
  echo "==== [$name] configure ===="
  cmake -B "$dir" -S . "${flags[@]}" > "$dir.cfg.log" 2>&1 || {
    cat "$dir.cfg.log"; return 1; }
  echo "==== [$name] build ===="
  cmake --build "$dir" -j "$JOBS" "$@"
}

# run_stage NAME: builds build-ci-NAME and runs its whole ctest suite.
run_stage() {
  ensure_tree "$1"
  echo "==== [$1] ctest ===="
  ctest --test-dir "build-ci-$1" --output-on-failure -j "$JOBS"
}

for stage in "${STAGES[@]}"; do
  case "$stage" in
    debug|release)
      run_stage "$stage"
      ;;
    tsan)
      run_stage tsan
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
      ;;
    ubsan)
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 run_stage ubsan
      ;;
    asan)
      # Not the whole suite: see the stage comment in the header.
      asan_tests=(SpawnPathsTest HandlerRaceTest CoreParTest
                  DataStructuresTest TransformersTest ServiceRuntimeTest
                  SchedulerTest ExploreTest ServiceRobustnessTest
                  FaultStressTest ServiceChaosTest)
      targets=()
      for t in "${asan_tests[@]}"; do targets+=(--target "$t"); done
      ensure_tree asan "${targets[@]}"
      echo "==== [asan] handler, flush and task lifetimes ===="
      for t in "${asan_tests[@]}"; do
        ./build-ci-asan/tests/"$t"
      done
      ;;
    bench)
      ensure_tree release
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
      # Non-fatal: prints each committed pre/post pair (bench/baselines/,
      # full-rep runs; CHANGES.md says what each pair tracks), so the
      # tracked delta shows without this stage depending on
      # machine-load-sensitive numbers. Smoke-run JSONs above use
      # reduced sizes and are not comparable to the committed baselines.
      for pre in bench/baselines/*_pre.json; do
        echo "---- ${pre%_pre.json}_{pre,post}.json ----"
        ./build-ci-release/tools/bench-report diff \
          "$pre" "${pre%_pre.json}_post.json" \
          || echo "bench-report diff failed (non-fatal)"
      done
      ;;
    faults)
      ensure_tree release
      echo "==== [faults] seeded fault-injection stress ===="
      ./build-ci-release/tests/FaultStressTest
      ./build-ci-release/tests/ServiceChaosTest
      ;;
    explore)
      ensure_tree release
      echo "==== [explore] schedule-exploration smoke (budget 100) ===="
      LVISH_EXPLORE_SCHEDULES=100 ./build-ci-release/tests/ExploreTest
      LVISH_EXPLORE_SCHEDULES=100 ./build-ci-release/tests/ExploreRegressionTest
      LVISH_EXPLORE_SCHEDULES=100 ./build-ci-release/tests/DeterminismStressTest \
        --gtest_filter='DeterminismExplored.*'
      ./build-ci-release/tests/ContentionStressTest \
        --gtest_filter='ContentionStress.Explored*'
      ;;
    pbbs)
      ensure_tree debug
      echo "==== [pbbs] golden matrix under Debug + LVISH_CHECK ===="
      ./build-ci-debug/tests/PbbsGoldenTest
      echo "==== [pbbs] explored sweeps + pinned replay corpus ===="
      LVISH_EXPLORE_SCHEDULES=100 ./build-ci-debug/tests/PbbsExploreTest
      ensure_tree release
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
      ensure_tree debug
      echo "==== [streams] StreamTest under Debug + LVISH_CHECK ===="
      # The dynamic checkers sample join laws on appendAt/advance;
      # the explored sweeps and the pinned backpressure replay run here
      # under a reduced schedule budget.
      LVISH_EXPLORE_SCHEDULES=100 ./build-ci-debug/tests/StreamTest
      ensure_tree tsan
      echo "==== [streams] StreamTest under ThreadSanitizer ===="
      # The producer park / consumer credit handshake (key bucket 1, the
      # publish-then-recheck Dekker protocol) is exactly where a missed
      # fence would hide from the single-threaded explored runs.
      ./build-ci-tsan/tests/StreamTest
      ensure_tree release
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
      ensure_tree tsan
      echo "==== [service] ServiceRuntimeTest under ThreadSanitizer ===="
      # Concurrent sessions share the waiter table and the per-session
      # inject queues, and each async session is finalized on the worker
      # that quiesced it - the exact surfaces where a cross-session data
      # race would hide from the single-session suite.
      ./build-ci-tsan/tests/ServiceRuntimeTest
      echo "==== [service] finalizing-worker tests, repeated, under TSan ===="
      # A worker that touched the session or the Runtime after the slot
      # release that lets drain() return races ~Runtime only now and then:
      # repeat the two tests that provoke it.
      ./build-ci-tsan/tests/ServiceRuntimeTest --gtest_repeat=20 \
        --gtest_filter='ServiceRuntime.AsyncSessionsQuiescingOnAParkAdmitTheNext:ServiceRuntime.TeardownRacesTheFinalizingWorker'
      ensure_tree release
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
      ensure_tree tsan
      echo "==== [chaos] ServiceChaosTest under ThreadSanitizer ===="
      # The doom-delivery thread vs. finalizing worker vs. admission
      # machinery is exactly where a shutdown/cancellation race would hide;
      # the test's
      # assertions are schedule-independent so TSan timing skew is fine.
      ./build-ci-tsan/tests/ServiceChaosTest
      echo "==== [chaos] ServiceRobustnessTest under ThreadSanitizer ===="
      ./build-ci-tsan/tests/ServiceRobustnessTest
      ensure_tree release
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
      # Only the analyzer itself is built here.
      ensure_tree release --target lvish-analyze
      echo "==== [analyze] lvish-analyze over src/ bench/ examples/ tests/ ===="
      ./build-ci-release/tools/lvish-analyze \
        --baseline tools/analyze/baseline.json \
        src bench examples tests
      ;;
    coverage)
      run_stage coverage
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
           "asan, bench, faults, explore, pbbs, streams, service, chaos," \
           "analyze, or coverage)" >&2
      exit 2
      ;;
  esac
done

echo "ci.sh: all stages passed (${STAGES[*]})"
