#!/usr/bin/env bash
# CI gate: regular build + full test suite, the service-layer concurrency
# suite (determinism + stress) plus the push-subscription registry and
# fan-out suites under ThreadSanitizer, the network layer under
# AddressSanitizer — unit suites plus live auditd smokes: client
# round-trips against a loopback daemon, a SIGTERM graceful drain, and
# three subscription soaks (lossless fan-out, slow-subscriber gap
# shedding under tiny socket buffers, and a SIGTERM drain that must
# flush parked pushes), failing on any ASan report — the tid-bitmap
# kernels plus the suspicion/granule bitmap differentials under
# UndefinedBehaviorSanitizer (and the same suites re-run in the ASan
# tree, where the batch kernel's lifetime regression is visible) — the
# durability gate
# (crash-fault-injection harness under ASan, then a live kill -9: stream
# ExecuteQuery at an auditd with --data-dir, SIGKILL it mid-stream, and
# prove every acked query recovers and re-audits on the same dir) — the
# policy gate (rule-config/redaction/sink/engine suites under ASan, then
# a live auditd with --audit-rules: SIGHUP hot-reload smoke racing a
# query stream, reload-to-broken keeping the old rules live, and a sink
# file integrity check: one well-formed redacted record per acked
# query, no marked literal leaked) — the replication cluster gate
# (replication codec/hub/cursor suites plus the in-process cluster
# scenarios under ASan, then a live 3-node loopback cluster:
# quorum-acked writes streaming while a replica is kill -9'd mid-stream
# and rejoined on the same dir, a SIGSTOP partition with bounded
# divergence and clean re-sync, follower verdicts diffed byte-for-byte
# against each other and against an offline serial auditor over the
# killed primary's quiesced dir, and a promote-on-primary-kill failover
# that must lose no acked write) — and finally a Release (-O2) build
# that smoke-runs the scan and expression-index benches, the 10M-row
# tid-bitmap kernel sweeps (bench_granule set-vs-bitmap), the batch
# suspicion benches (bench_batch minimization and split-attack
# detection, with their check-phase time), plus the
# bench_net push-latency sweep, the bench_policy overhead acceptance
# check (<5% at 0% rule-hit rate), and the bench_mixed MVCC sweep
# (no shape's static facts computed twice AND writes must commit under
# every write combo),
# checking their BENCH_scan.json / BENCH_granule.json /
# BENCH_batch.json / BENCH_index.json / BENCH_push.json
# / BENCH_policy.json / BENCH_mixed.json / BENCH_repl.json artifacts
# (the last from the bench_net replication followers-x-ack sweep), each
# of which must parse as JSON, as must auditd's final metrics line.
#
# Usage: tools/run_ci.sh [build-dir-prefix]
#   Build trees land in <prefix>, <prefix>-tsan, <prefix>-asan,
#   <prefix>-ubsan and <prefix>-release (default: build-ci).

set -euo pipefail

cd "$(dirname "$0")/.."
PREFIX="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

echo "== [1/9] build (${PREFIX}) =="
cmake -B "${PREFIX}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${PREFIX}" -j "${JOBS}"

echo "== [2/9] ctest =="
ctest --test-dir "${PREFIX}" --output-on-failure -j "${JOBS}"

echo "== [3/9] service determinism + stress under ThreadSanitizer =="
cmake -B "${PREFIX}-tsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DAUDITDB_SANITIZE=thread
# The TSan gate needs the concurrency suites: the service layer, the
# MVCC read path (snapshot-pinned audits racing writers must stay
# byte-identical to a quiesced serial run), the subscription registry
# (publishers vs drainers vs churn), the end-to-end push fan-out
# (Subscribe/Unsubscribe racing Observe), and the policy engine's
# Decide/Emit-vs-reload race. service_test also carries
# MvccConcurrentTest.JoinIndexBuiltOnceUnderConcurrentExecute: eight
# threads racing the first probes of one version's lazily built join-key
# indexes, and its sibling ProbeSideIndexBuiltOnceUnderConcurrentReduction
# racing the probe-side index a semijoin reduction builds. auditor_test
# carries ChurnedAuditorTest.PoolMatchesSerial:
# pool workers share the TableVersions one backlog cursor pinned into
# several states and race each one's first join-index build.
# auditor_test also carries ParsedShapeConcurrentTest: a served audit and
# a pooled audit race the first parse and the first static-facts
# computation of every shape of a cold query log; the ParsedShape unit
# and property suites and ShapeMemoTest ride along. property_test also
# carries VersionSharingProperty: neighbouring table versions share
# per-column slots (column vector, layout, join-key index), and its
# concurrent case races the first builds of slots that several pinned
# versions share.
cmake --build "${PREFIX}-tsan" -j "${JOBS}" \
      --target service_test subscription_test net_test policy_test \
               common_test auditor_test querylog_test property_test
# TidBitmap rides along: the audit-pipeline suite audits with bitmaps on
# by default (caller thread vs 1/2/3/8-worker pools), so the kernels also
# run under the parallel checkers above.
ctest --test-dir "${PREFIX}-tsan" --output-on-failure \
      -R 'AuditPipelineTest|OnlineConcurrentTest|MvccConcurrentTest|ThreadPoolTest|RunBatchTest|BoundedQueueTest|CounterTest|GaugeTest|HistogramTest|MetricsRegistryTest|PushCodecTest|SubscriptionRegistryTest|SubscriptionConcurrentTest|PushSubscriptionTest|PolicyEngineConcurrentTest|TidBitmapTest|TidBitmapDifferentialTest|ChurnedAuditorTest.PoolMatchesSerial|ParsedShapeConcurrentTest|ShapeMemoTest|ParsedShapeTest|ParsedShapeProperty|VersionSharingProperty'

# The sanitizer stages [4/9] (ASan) and [5/9] (UBSan) share one suite
# list and the test binaries that carry it; each stage's -R filter and
# --target list add only that stage's extras. The reasons each shared
# suite rides along are given at the stages below. MetricsGoldenTest
# pins the bytes of every metrics section (escaping included).
SANITIZER_SUITES="$(printf '%s' \
  'TidBitmapTest|TidBitmapDifferentialTest|SuspicionTest|' \
  'SuspicionReferenceTest|MinimizeDifferentialTest|' \
  'OnlineAuditorTest.FailedReexecutionIsAnErrorNotAClear|' \
  'OnlineAuditorTest.OneFailingExpressionDoesNotStopTheOthers|' \
  'ClusterTest.ReplicaCountsAFailedObserveReexecution|ExecutorDifferential|' \
  'ExecutorReferenceTest|TableScanTest|PredicateProgramTest|' \
  'PredicateProgramPropertyTest|JoinKeyIndexTest|' \
  'TableVersionTest.JoinIndexIsBuiltOncePerVersionAndColumn|' \
  'AuditorTest.RepeatedCandidatesShareOneExecutionPerState|' \
  'BacklogDifferential|BacklogCursorTest|TargetViewSweepDifferential|' \
  'ChurnedAuditorTest|SemijoinDifferential|ExecutorSemijoinTest|' \
  'ExecutorHashSkipTest|OnlineReferenceDifferential|LineageTest|' \
  'LineageOnlyDifferential|GranuleTest|PaperExamplesTest|SchemeMismatchTest|' \
  'ExecutorHashJoinKeyLayoutTest|TargetViewRestrictionDifferential|' \
  'ParsedShapeProperty|ParsedShapeTest|ShapeMemoTest|' \
  'ParsedShapeConcurrentTest|' \
  'OnlineAuditorTest.LoggedEntryAndZeroShapeCopyScreenIdentically|' \
  'MetricsGoldenTest|VersionSharingProperty')"
SANITIZER_TARGETS=(common_test suspicion_test suspicion_reference_test
                   minimize_test online_test cluster_test engine_test
                   property_test storage_test auditor_test backlog_test
                   target_view_test online_reference_test expr_test
                   granule_test paper_examples_test querylog_test
                   metrics_golden_test)

echo "== [4/9] network layer under AddressSanitizer =="
cmake -B "${PREFIX}-asan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DAUDITDB_SANITIZE=address
cmake --build "${PREFIX}-asan" -j "${JOBS}" \
      --target net_test subscription_test auditd audit_client \
               subscription_soak "${SANITIZER_TARGETS[@]}"
# ASan exits non-zero on any report; halt_on_error makes that immediate.
# The tid-bitmap and suspicion suites ride along here: the batch
# kernel's lifetime regression (BatchSupports read after its temporary
# batch vector died) is exactly the kind of bug only this tree can see. The online re-execution-failure cases ride
# along too: they drive the observe error path, in process and over the
# wire on a replica. So do the executor's reference differentials and
# the scan/predicate-program suites: the hash-join build, the
# interpreter fallback of predicate programs and the lineage layout they
# check are what the next re-execution rewrites change. The join-key index suites and the
# auditor's shared-execution case ride along for the same reason: probes
# read rows through a version-owned index, and candidates share one
# profile by pointer. The backlog cursor suites, the sweep-vs-replay
# target-view differential and the churned auditor cases ride along
# too: pinned views outlive the cursor and its tables, so a version's
# shared segments are what keeps them valid. The semijoin suites ride
# along: the reduction indexes row masks by index-match positions. So
# does the online reference differential: the monitor's pooled
# screenings share cached profiles by pointer across a churning world.
# The lineage suites ride along: flat lineage rows are spans into one
# vector, and lineage-only visits leave unread combined-row slots stale.
# The granule and paper-example suites and the scheme-mismatch cases ride
# along: an enumerator comes out of a Result and holds its view by
# reference. The target-view restriction differential and the hash-join
# key-layout cases ride along: restrictions are spans into row lists the
# auditor owns, and restricted runs index masks by row position. The
# query log's per-shape memo suites ride along: audits keep pointers
# into ParsedShapes and share their statements and facts by pointer.
# The version-sharing property rides along: a column slot's join-key
# index outlives the version that built it and is probed against a
# later version's rows.
export ASAN_OPTIONS="halt_on_error=1:abort_on_error=0:exitcode=99"
ctest --test-dir "${PREFIX}-asan" --output-on-failure \
      -R 'FrameCodecTest|FrameReaderTest|FieldCodecTest|ErrorCodecTest|TypePredicatesTest|AuditServerTest|PushCodecTest|SubscriptionRegistryTest|PushSubscriptionTest|'"${SANITIZER_SUITES}"

echo "-- auditd loopback smoke (ASan build) --"
PORT_FILE="$(mktemp)"
AUDITD_LOG="$(mktemp)"
"${PREFIX}-asan/tools/auditd" --port 0 --port-file "${PORT_FILE}" \
    --fixture hospital:200:2008 --workload 500:7 >"${AUDITD_LOG}" 2>&1 &
AUDITD_PID=$!
cleanup() { kill -9 "${AUDITD_PID}" 2>/dev/null || true; }
trap cleanup EXIT

# Wait for the daemon to write its ephemeral port.
for _ in $(seq 1 100); do
  [ -s "${PORT_FILE}" ] && break
  kill -0 "${AUDITD_PID}" 2>/dev/null || { cat "${AUDITD_LOG}"; exit 1; }
  sleep 0.1
done
PORT="$(cat "${PORT_FILE}")"
[ -n "${PORT}" ] || { echo "auditd never reported a port"; cat "${AUDITD_LOG}"; exit 1; }

# Remote client smoke: health + audit + metrics over the wire.
"${PREFIX}-asan/examples/audit_client" "127.0.0.1:${PORT}"

# Graceful drain: SIGTERM must yield a clean exit 0 (and no ASan report).
kill -TERM "${AUDITD_PID}"
DRAIN_RC=0
wait "${AUDITD_PID}" || DRAIN_RC=$?
trap - EXIT
if [ "${DRAIN_RC}" -ne 0 ]; then
  echo "auditd drain exited ${DRAIN_RC}"
  cat "${AUDITD_LOG}"
  exit 1
fi
grep -q '"server"' "${AUDITD_LOG}" || {
  echo "auditd did not print final metrics"; cat "${AUDITD_LOG}"; exit 1; }
grep '^{"server"' "${AUDITD_LOG}" | tail -n 1 |
    python3 -c 'import json, sys; json.load(sys.stdin)' || {
  echo "auditd's final metrics line is not JSON"; cat "${AUDITD_LOG}"; exit 1; }
rm -f "${PORT_FILE}" "${AUDITD_LOG}"

# Starts a fresh ASan auditd with the given extra flags and exports
# AUDITD_PID / PORT. The caller kills and waits it.
start_auditd() {
  : >"${PORT_FILE:=$(mktemp)}"
  AUDITD_LOG="$(mktemp)"
  "${PREFIX}-asan/tools/auditd" --port 0 --port-file "${PORT_FILE}" \
      "$@" >"${AUDITD_LOG}" 2>&1 &
  AUDITD_PID=$!
  trap cleanup EXIT
  for _ in $(seq 1 100); do
    [ -s "${PORT_FILE}" ] && break
    kill -0 "${AUDITD_PID}" 2>/dev/null || { cat "${AUDITD_LOG}"; exit 1; }
    sleep 0.1
  done
  PORT="$(cat "${PORT_FILE}")"
  [ -n "${PORT}" ] || {
    echo "auditd never reported a port"; cat "${AUDITD_LOG}"; exit 1; }
}

# SIGTERMs auditd and requires a clean (drained) exit 0.
drain_auditd() {
  kill -TERM "${AUDITD_PID}"
  DRAIN_RC=0
  wait "${AUDITD_PID}" || DRAIN_RC=$?
  trap - EXIT
  if [ "${DRAIN_RC}" -ne 0 ]; then
    echo "auditd drain exited ${DRAIN_RC}"; cat "${AUDITD_LOG}"; exit 1
  fi
}

echo "-- subscription soak: lossless fan-out (ASan build) --"
# 4 subscribers on 2 standing expressions, 50 distinct-pid queries:
# every subscriber must account for every push (no gaps expected).
start_auditd --fixture hospital:100:2008
"${PREFIX}-asan/tools/subscription_soak" --port "${PORT}" \
    --subscribers 4 --queries 50
drain_auditd

echo "-- subscription soak: slow-subscriber gap shedding (ASan build) --"
# Kernel-floor socket buffers + a depth-4 queue force the drop-oldest
# policy on the slow subscriber; the soak fails on any sequence lost
# without a GAP frame and on the absence of gaps, and the fast
# subscribers still see everything.
start_auditd --fixture hospital:400:2008 \
    --push-queue-depth 4 --so-sndbuf 2048
"${PREFIX}-asan/tools/subscription_soak" --port "${PORT}" \
    --subscribers 3 --queries 300 \
    --slow 1 --slow-sleep-ms 10 --slow-rcvbuf 2048 --expect-gaps
drain_auditd

echo "-- subscription soak: SIGTERM drain flushes parked pushes --"
# Small server send buffers park pushes behind two deliberately slow
# subscribers; SIGTERM lands while they are still reading. The drain
# must flush every parked push (the soak requires the exact count)
# and auditd must exit 0.
start_auditd --fixture hospital:150:2008 --so-sndbuf 2048
SOAK_LOG="$(mktemp)"
"${PREFIX}-asan/tools/subscription_soak" --port "${PORT}" \
    --subscribers 4 --queries 80 \
    --slow 2 --slow-sleep-ms 5 --slow-rcvbuf 2048 --hold \
    >"${SOAK_LOG}" 2>&1 &
SOAK_PID=$!
for _ in $(seq 1 200); do
  grep -q 'SOAK_READY' "${SOAK_LOG}" && break
  kill -0 "${SOAK_PID}" 2>/dev/null || { cat "${SOAK_LOG}"; exit 1; }
  sleep 0.1
done
grep -q 'SOAK_READY' "${SOAK_LOG}" || {
  echo "soak never reached SOAK_READY"; cat "${SOAK_LOG}"; exit 1; }
drain_auditd
wait "${SOAK_PID}" || { echo "drain soak failed"; cat "${SOAK_LOG}"; exit 1; }
grep -q 'SOAK_OK' "${SOAK_LOG}" || { cat "${SOAK_LOG}"; exit 1; }
rm -f "${PORT_FILE}" "${AUDITD_LOG}" "${SOAK_LOG}"

echo "== [5/9] tid-bitmap kernels under UndefinedBehaviorSanitizer =="
# The compressed-bitmap containers are the one place in the tree doing
# dense bit manipulation (word shifts, countr_zero scans, sign-flip
# encoding of INT64_MIN/MAX tids): run their unit + differential suites,
# and the suspicion/granule reference-model differentials that exercise
# them end-to-end, with UB checking hot. The online re-execution-failure
# cases ride along: their queries fail on integer division by zero and
# on type errors inside the evaluator. The executor reference
# differentials and the scan/predicate-program suites ride along too
# (selection-vector indexing, and the interpreter fallback's row
# filling), and so do the
# backlog cursor and sweep-vs-replay suites (prefix and restart
# arithmetic over the event log), the semijoin suites (row-id
# casts between index positions, masks and allowed-row lists), and the
# online reference differential (rank arithmetic over failing and
# churned streams), and the strict integer parsers (their int64 and
# uint64 range edges), the lineage suites (row offsets into the flat
# tid vector), and the granule and paper-example suites with the
# scheme-mismatch cases (k-combination index arithmetic over resolved
# schemes), and the target-view restriction differential with the
# hash-join key-layout cases (row positions cast to 32 bits, per-run
# allowed-row masks), and the query log's per-shape memo suites, and
# the version-sharing property (join-key index positions cast to 32
# bits and probed through a later version's rows).
cmake -B "${PREFIX}-ubsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DAUDITDB_SANITIZE=undefined
cmake --build "${PREFIX}-ubsan" -j "${JOBS}" \
      --target "${SANITIZER_TARGETS[@]}"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
ctest --test-dir "${PREFIX}-ubsan" --output-on-failure \
      -R 'StringUtilTest|'"${SANITIZER_SUITES}"

echo "== [6/9] policy gate under AddressSanitizer =="
cmake --build "${PREFIX}-asan" -j "${JOBS}" \
      --target policy_test workload_test net_test auditd durability_smoke
# Rule parsing (incl. the adversarial-config cases), redaction, sink
# line protocol, engine matching + hot reload, the rule-hit workload
# axis, and the wire-level policy suite (sink records, redacted
# DetailedReport with byte-identical verdicts, redacted push frames).
ctest --test-dir "${PREFIX}-asan" --output-on-failure \
      -R 'RuleConfigTest|RedactionSetTest|RedactSqlTest|ClassifySqlTest|ExtractTablesTest|SinkLineTest|FileSinkTest|SyslogLineSinkTest|MetricsSinkTest|PolicyEngineTest|PolicyEngineConcurrentTest|PolicyNetTest|WorkloadRuleHitTest'

echo "-- live auditd policy smoke: rules, SIGHUP hot-reload, sinks --"
RULES_FILE="$(mktemp)"
SINK_FILE="$(mktemp)"
DRIVE_LOG="$(mktemp)"
write_rules() {  # $1 = log-class for the single watch rule
  cat >"${RULES_FILE}" <<EOF
[rule watch]
user = smoke
log-class = $1
detail = static-screen
redact = disease
sink = file, metrics
EOF
}
write_rules alpha
start_auditd --fixture hospital:50:2008 \
    --audit-rules "${RULES_FILE}" --audit-sink-file "${SINK_FILE}"

# drive N: stream N watched ExecuteQuery round-trips, echo acked count.
drive() {
  "${PREFIX}-asan/tools/durability_smoke" drive "127.0.0.1:${PORT}" "$1" \
      2>/dev/null | awk '/^acked/{print $2}'
}

# Phase 1: alpha rules.
D1="$(drive 40)"
[ "${D1}" = "40" ] || { echo "alpha drive acked ${D1}/40"; exit 1; }

# Phase 2: five SIGHUP hot-reloads (alternating alpha/beta) racing a
# background query stream — the swap must be atomic under live traffic.
"${PREFIX}-asan/tools/durability_smoke" drive "127.0.0.1:${PORT}" 1000 \
    >"${DRIVE_LOG}" 2>/dev/null &
DRIVER_PID=$!
for i in 1 2 3 4 5; do
  if [ $((i % 2)) -eq 0 ]; then write_rules alpha; else write_rules beta; fi
  kill -HUP "${AUDITD_PID}"
  sleep 0.1
done
wait "${DRIVER_PID}" || { echo "background driver failed"; exit 1; }
D2="$(awk '/^acked/{print $2}' "${DRIVE_LOG}")"
[ "${D2}" = "1000" ] || { echo "reload-race drive acked ${D2}/1000"; exit 1; }

# Phase 3: traffic after the last reload must carry the new log class.
D3="$(drive 20)"
[ "${D3}" = "20" ] || { echo "beta drive acked ${D3}/20"; exit 1; }

# Phase 4: reload-to-broken keeps the old rules live (and the daemon up).
echo "[rule broken" >"${RULES_FILE}"
kill -HUP "${AUDITD_PID}"
sleep 0.3
kill -0 "${AUDITD_PID}" || { echo "auditd died on broken reload"; cat "${AUDITD_LOG}"; exit 1; }
D4="$(drive 20)"
[ "${D4}" = "20" ] || { echo "post-broken drive acked ${D4}/20"; exit 1; }

drain_auditd
grep -q 'auditd: reloaded' "${AUDITD_LOG}" || {
  echo "auditd never reported a successful reload"; cat "${AUDITD_LOG}"; exit 1; }
grep -q 'keeping old rules' "${AUDITD_LOG}" || {
  echo "auditd did not survive the broken config"; cat "${AUDITD_LOG}"; exit 1; }

# Sink file integrity: one well-formed record per acked query, both log
# classes observed across the reloads, redaction applied, no leak of the
# marked literal.
TOTAL=$((D1 + D2 + D3 + D4))
LINES="$(wc -l <"${SINK_FILE}")"
[ "${LINES}" = "${TOTAL}" ] || {
  echo "sink file has ${LINES} records, expected ${TOTAL}"; exit 1; }
awk -F'|' '!/^AUDIT / || NF != 12 { bad++ }
           END { exit (bad > 0) }' "${SINK_FILE}" || {
  echo "sink file contains malformed records"; exit 1; }
grep -q '|alpha|' "${SINK_FILE}" || { echo "no alpha-class records"; exit 1; }
grep -q '|beta|' "${SINK_FILE}" || { echo "no beta-class records"; exit 1; }
grep -q '\[REDACTED\]' "${SINK_FILE}" || {
  echo "sink records are not redacted"; exit 1; }
if grep -q 'diabetic' "${SINK_FILE}"; then
  echo "sink file leaked the redacted literal"; exit 1
fi
rm -f "${RULES_FILE}" "${SINK_FILE}" "${DRIVE_LOG}" "${PORT_FILE}" "${AUDITD_LOG}"

echo "== [7/9] durability gate under AddressSanitizer =="
cmake --build "${PREFIX}-asan" -j "${JOBS}" \
      --target io_test querylog_test net_test auditd durability_smoke
# The crash-fault-injection harness: every injected IO failure and every
# crash point must recover a consistent prefix of the acked appends.
ctest --test-dir "${PREFIX}-asan" --output-on-failure \
      -R 'Crc32cTest|PosixEnvTest|AtomicWriteFileTest|FaultInjectingEnvTest|WalTest|WalPayloadTest|FsyncPolicyTest|DurableStoreTest|DurableStoreFaultTest|DurableStoreCrashTest|DurableServerTest|ClientRetryTest|ClientDecodeTest'

echo "-- kill -9 crash smoke (ASan build) --"
DATA_DIR="$(mktemp -d)"
PORT_FILE="$(mktemp)"
AUDITD_LOG="$(mktemp)"
ACKS_FILE="$(mktemp)"
"${PREFIX}-asan/tools/auditd" --port 0 --port-file "${PORT_FILE}" \
    --data-dir "${DATA_DIR}" --fsync always --checkpoint-every 0 \
    --fixture hospital:50:2008 >"${AUDITD_LOG}" 2>&1 &
AUDITD_PID=$!
cleanup() { kill -9 "${AUDITD_PID}" 2>/dev/null || true; }
trap cleanup EXIT
for _ in $(seq 1 100); do
  [ -s "${PORT_FILE}" ] && break
  kill -0 "${AUDITD_PID}" 2>/dev/null || { cat "${AUDITD_LOG}"; exit 1; }
  sleep 0.1
done
PORT="$(cat "${PORT_FILE}")"
[ -n "${PORT}" ] || { echo "auditd never reported a port"; cat "${AUDITD_LOG}"; exit 1; }

# Stream appends at the daemon and SIGKILL it mid-stream: no drain, no
# final checkpoint — recovery gets only the WAL the acks were fsynced to.
"${PREFIX}-asan/tools/durability_smoke" drive "127.0.0.1:${PORT}" 100000 \
    >"${ACKS_FILE}" 2>/dev/null &
DRIVER_PID=$!
sleep 1
kill -9 "${AUDITD_PID}"
wait "${DRIVER_PID}" || { echo "durability driver failed"; exit 1; }
trap - EXIT
ACKED="$(awk '/^acked/{print $2}' "${ACKS_FILE}")"
echo "acked before SIGKILL: ${ACKED}"
[ -n "${ACKED}" ] && [ "${ACKED}" -gt 0 ] || {
  echo "driver acked nothing before the kill"; cat "${AUDITD_LOG}"; exit 1; }

# Offline: every acked append must recover, densely numbered, and the
# recovered world must survive a full audit.
"${PREFIX}-asan/tools/durability_smoke" verify "${DATA_DIR}" "${ACKED}"

# The daemon itself must recover the same dir, serve, and drain cleanly.
: >"${PORT_FILE}"
"${PREFIX}-asan/tools/auditd" --port 0 --port-file "${PORT_FILE}" \
    --data-dir "${DATA_DIR}" --fsync always >"${AUDITD_LOG}" 2>&1 &
AUDITD_PID=$!
trap cleanup EXIT
for _ in $(seq 1 100); do
  [ -s "${PORT_FILE}" ] && break
  kill -0 "${AUDITD_PID}" 2>/dev/null || { cat "${AUDITD_LOG}"; exit 1; }
  sleep 0.1
done
PORT="$(cat "${PORT_FILE}")"
"${PREFIX}-asan/examples/audit_client" "127.0.0.1:${PORT}" >/dev/null
kill -TERM "${AUDITD_PID}"
DRAIN_RC=0
wait "${AUDITD_PID}" || DRAIN_RC=$?
trap - EXIT
if [ "${DRAIN_RC}" -ne 0 ]; then
  echo "recovered auditd drain exited ${DRAIN_RC}"
  cat "${AUDITD_LOG}"
  exit 1
fi
grep -q 'auditd: recovered snapshot' "${AUDITD_LOG}" || {
  echo "restarted auditd did not report recovery"; cat "${AUDITD_LOG}"; exit 1; }
rm -rf "${DATA_DIR}"
rm -f "${PORT_FILE}" "${AUDITD_LOG}" "${ACKS_FILE}"

echo "== [8/9] replication cluster gate under AddressSanitizer =="
cmake --build "${PREFIX}-asan" -j "${JOBS}" \
      --target net_test querylog_test cluster_test auditd audit_cluster \
               durability_smoke
# Replication unit suites (framing codecs, ship/ack hub, WAL shipping
# cursor, retry budget) plus the in-process multi-node scenarios
# (bootstrap, durable catch-up, NOT_PRIMARY redirects, promote, quorum).
ctest --test-dir "${PREFIX}-asan" --output-on-failure \
      -R 'RetryBudgetTest|ReplAckPolicyTest|ParseHostPortTest|NotPrimaryTest|ReplicateCodecTest|ReplicateHandshakeTest|ShipDecisionTest|ReplicationHubTest|WalCursorTest|ClusterTest'

echo "-- 3-node cluster: kill -9 rejoin, partition re-sync, promote --"
CLUSTER="${PREFIX}-asan/tools/audit_cluster"
SMOKE="${PREFIX}-asan/tools/durability_smoke"
CLUSTER_EXPR="DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 AUDIT (name, disease) FROM P-Personal, P-Health WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'"
P_DIR="$(mktemp -d)"; A_DIR="$(mktemp -d)"; B_DIR="$(mktemp -d)"
P_PID=""; A_PID=""; B_PID=""
cluster_cleanup() {
  for pid in "${P_PID}" "${A_PID}" "${B_PID}"; do
    [ -n "${pid}" ] && kill -9 "${pid}" 2>/dev/null || true
  done
}
trap cluster_cleanup EXIT

# Starts one cluster node; exports <VAR>_PID / <VAR>_PORT / <VAR>_LOG.
start_node() {
  local var=$1; shift
  local port_file; port_file="$(mktemp)"
  local log_file; log_file="$(mktemp)"
  "${PREFIX}-asan/tools/auditd" --port 0 --port-file "${port_file}" \
      "$@" >"${log_file}" 2>&1 &
  local pid=$!
  for _ in $(seq 1 150); do
    [ -s "${port_file}" ] && break
    kill -0 "${pid}" 2>/dev/null || { cat "${log_file}"; exit 1; }
    sleep 0.1
  done
  [ -s "${port_file}" ] || {
    echo "cluster node never reported a port"; cat "${log_file}"; exit 1; }
  eval "${var}_PID=${pid}"
  eval "${var}_PORT=$(cat "${port_file}")"
  eval "${var}_LOG=${log_file}"
  rm -f "${port_file}"
}

# Primary: durable, fsync-per-ack, no background checkpoints (recovery
# sees exactly the WAL the acks were fsynced to), quorum acks — over
# {primary, 2 followers} a write needs 1 follower ack, so the cluster
# keeps committing with either replica dead or partitioned.
start_node P --data-dir "${P_DIR}" --fsync always --checkpoint-every 0 \
    --fixture hospital:50:2008 --repl-ack quorum --repl-ack-timeout-ms 10000
start_node A --data-dir "${A_DIR}" --replicate-from "127.0.0.1:${P_PORT}"
start_node B --data-dir "${B_DIR}" --replicate-from "127.0.0.1:${P_PORT}"
for _ in $(seq 1 100); do
  "${CLUSTER}" status "127.0.0.1:${P_PORT}" | grep -q 'followers=2' && break
  sleep 0.1
done
"${CLUSTER}" status "127.0.0.1:${P_PORT}" "127.0.0.1:${A_PORT}" \
    "127.0.0.1:${B_PORT}"
"${CLUSTER}" status "127.0.0.1:${P_PORT}" | grep -q 'followers=2' || {
  echo "followers never registered"; cat "${A_LOG}" "${B_LOG}"; exit 1; }

# Phase 1: stream quorum-acked writes and kill -9 replica B mid-stream.
# Replica A alone sustains the quorum, so every write must still ack.
DRIVE_LOG="$(mktemp)"
"${SMOKE}" drive "127.0.0.1:${P_PORT}" 1500 >"${DRIVE_LOG}" 2>/dev/null &
DRIVER_PID=$!
sleep 0.3
kill -9 "${B_PID}"
wait "${DRIVER_PID}" || { echo "cluster driver failed"; exit 1; }
ACKED1="$(awk '/^acked/{print $2}' "${DRIVE_LOG}")"
[ "${ACKED1}" = "1500" ] || {
  echo "quorum stream acked ${ACKED1}/1500 after replica kill"; exit 1; }

# Rejoin B on its own dir: it recovers the durable prefix (torn tail
# truncated by WAL recovery) and catches up over the stream.
start_node B --data-dir "${B_DIR}" --replicate-from "127.0.0.1:${P_PORT}"
"${CLUSTER}" wait-applied "127.0.0.1:${B_PORT}" "${ACKED1}" 30000 || {
  echo "rejoined replica never caught up"; cat "${B_LOG}"; exit 1; }

# Phase 2: partition replica A (SIGSTOP blackholes its stream without
# dropping the TCP connection), keep committing on B's ack, then heal.
# Divergence is bounded by the primary's per-follower backlog; on CONT
# the buffered suffix drains and A re-syncs without a restart.
kill -STOP "${A_PID}"
: >"${DRIVE_LOG}"
"${SMOKE}" drive "127.0.0.1:${P_PORT}" 100 >"${DRIVE_LOG}" 2>/dev/null
ACKED2="$(awk '/^acked/{print $2}' "${DRIVE_LOG}")"
[ "${ACKED2}" = "100" ] || {
  echo "partitioned quorum acked ${ACKED2}/100"; exit 1; }
TOTAL=$((ACKED1 + ACKED2))
kill -CONT "${A_PID}"
"${CLUSTER}" wait-applied "127.0.0.1:${A_PORT}" "${TOTAL}" 30000 || {
  echo "partitioned replica never re-synced"; cat "${A_LOG}"; exit 1; }
"${CLUSTER}" wait-applied "127.0.0.1:${B_PORT}" "${TOTAL}" 30000

# The replication contract, byte for byte: all three live verdicts
# identical, and identical to a quiesced serial auditor recovering the
# primary's dir offline after the primary is kill -9'd.
V_P="$(mktemp)"; V_A="$(mktemp)"; V_B="$(mktemp)"; V_OFF="$(mktemp)"
"${CLUSTER}" verdict "127.0.0.1:${P_PORT}" "${CLUSTER_EXPR}" >"${V_P}"
"${CLUSTER}" verdict "127.0.0.1:${A_PORT}" "${CLUSTER_EXPR}" >"${V_A}"
"${CLUSTER}" verdict "127.0.0.1:${B_PORT}" "${CLUSTER_EXPR}" >"${V_B}"
[ -s "${V_P}" ] || { echo "primary verdict is empty"; exit 1; }
cmp "${V_P}" "${V_A}" || { echo "replica A verdict diverged"; exit 1; }
cmp "${V_P}" "${V_B}" || { echo "replica B verdict diverged"; exit 1; }

kill -9 "${P_PID}"; P_PID=""
"${CLUSTER}" verdict-offline "${P_DIR}" "${CLUSTER_EXPR}" >"${V_OFF}"
cmp "${V_P}" "${V_OFF}" || {
  echo "offline serial verdict diverged from the cluster"; exit 1; }

# Phase 3: failover. Both replicas hold the full acked prefix; the
# supervisor promotes the most-caught-up one, which must already have
# every acked write and then accept new ones extending the prefix.
NEW_PRIMARY="$("${CLUSTER}" failover "127.0.0.1:${A_PORT}" \
    "127.0.0.1:${B_PORT}")"
[ -n "${NEW_PRIMARY}" ] || { echo "failover promoted nothing"; exit 1; }
echo "promoted ${NEW_PRIMARY}"
"${CLUSTER}" wait-applied "${NEW_PRIMARY}" "${TOTAL}" 5000 || {
  echo "promoted node lost acked writes"; exit 1; }
: >"${DRIVE_LOG}"
"${SMOKE}" drive "${NEW_PRIMARY}" 20 >"${DRIVE_LOG}" 2>/dev/null
ACKED3="$(awk '/^acked/{print $2}' "${DRIVE_LOG}")"
[ "${ACKED3}" = "20" ] || {
  echo "promoted primary acked ${ACKED3}/20"; exit 1; }
"${CLUSTER}" wait-applied "${NEW_PRIMARY}" $((TOTAL + 20)) 10000
"${CLUSTER}" status "${NEW_PRIMARY}" | grep -q 'primary' || {
  echo "promoted node does not report primary"; exit 1; }

# Both survivors must drain cleanly (exit 0, no ASan report) — including
# the non-promoted replica still pointed at the dead primary.
kill -TERM "${A_PID}" "${B_PID}"
A_RC=0; wait "${A_PID}" || A_RC=$?
B_RC=0; wait "${B_PID}" || B_RC=$?
A_PID=""; B_PID=""
trap - EXIT
[ "${A_RC}" -eq 0 ] || {
  echo "replica A drain exited ${A_RC}"; cat "${A_LOG}"; exit 1; }
[ "${B_RC}" -eq 0 ] || {
  echo "replica B drain exited ${B_RC}"; cat "${B_LOG}"; exit 1; }
rm -rf "${P_DIR}" "${A_DIR}" "${B_DIR}"
rm -f "${DRIVE_LOG}" "${V_P}" "${V_A}" "${V_B}" "${V_OFF}" \
      "${P_LOG}" "${A_LOG}" "${B_LOG}"

echo "== [9/9] Release build + bench smokes =="
cmake -B "${PREFIX}-release" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${PREFIX}-release" -j "${JOBS}" \
      --target bench_scan bench_index bench_granule bench_batch
# A tiny sweep: one fused-filter shape, just enough to prove the bench
# runs and emits its JSON artifact.
( cd "${PREFIX}-release/bench" && \
  ./bench_scan \
      --benchmark_filter='BM_Filter/10000/10/3' \
      --benchmark_min_time=0.05 )
[ -s "${PREFIX}-release/bench/BENCH_scan.json" ] || {
  echo "bench_scan did not write BENCH_scan.json"; exit 1; }
grep -q '"benchmarks"' "${PREFIX}-release/bench/BENCH_scan.json" || {
  echo "BENCH_scan.json is not benchmark JSON"; exit 1; }

# The tid-bitmap kernel sweep at 10M tids: the set-vs-bitmap union and
# membership pairs (dense), proving the suspicion/candidacy kernels run
# at the 10M scale and BENCH_granule.json lands.
( cd "${PREFIX}-release/bench" && \
  ./bench_granule \
      --benchmark_filter='BM_IndispensableUnion/10000000/1|BM_SuspicionMembership/10000000/1|BM_WitnessIntersect/10000000/1' \
      --benchmark_min_time=0.05 )
[ -s "${PREFIX}-release/bench/BENCH_granule.json" ] || {
  echo "bench_granule did not write BENCH_granule.json"; exit 1; }
grep -q '"benchmarks"' "${PREFIX}-release/bench/BENCH_granule.json" || {
  echo "BENCH_granule.json is not benchmark JSON"; exit 1; }

# The batch suspicion benches: one minimization point and one
# split-attack point (per-query verdicts), proving BENCH_batch.json lands
# with the audit's check-phase time (check_ms) on every row.
( cd "${PREFIX}-release/bench" && \
  ./bench_batch \
      --benchmark_filter='BM_MinimalBatchExtraction/100$|BM_SplitAttackDetection/8$' \
      --benchmark_min_time=0.05 )
[ -s "${PREFIX}-release/bench/BENCH_batch.json" ] || {
  echo "bench_batch did not write BENCH_batch.json"; exit 1; }
python3 -c 'import json, sys; rows = json.load(open(sys.argv[1]))["benchmarks"]; sys.exit(0 if rows and all("check_ms" in r for r in rows) else 1)' \
    "${PREFIX}-release/bench/BENCH_batch.json" || {
  echo "BENCH_batch.json lacks benchmark rows with check_ms"; exit 1; }

# The expression-index bench: one point at 64 standing expressions,
# proving the sweep runs and emits BENCH_index.json.
( cd "${PREFIX}-release/bench" && \
  ./bench_index --benchmark_filter='BM_ObserveStanding/64/8$' \
                --benchmark_min_time=0.05 )
[ -s "${PREFIX}-release/bench/BENCH_index.json" ] || {
  echo "bench_index did not write BENCH_index.json"; exit 1; }
grep -q '"benchmarks"' "${PREFIX}-release/bench/BENCH_index.json" || {
  echo "BENCH_index.json is not benchmark JSON"; exit 1; }

# The push-latency sweep: subscribers x queue-depth over a loopback
# server, measuring query-dispatch -> push-handler latency. `push` mode
# exits non-zero if any combination loses a push, and always emits
# BENCH_push.json.
cmake --build "${PREFIX}-release" -j "${JOBS}" --target bench_net
( cd "${PREFIX}-release/bench" && ./bench_net push 40 )
[ -s "${PREFIX}-release/bench/BENCH_push.json" ] || {
  echo "bench_net did not write BENCH_push.json"; exit 1; }
grep -q '"benchmarks"' "${PREFIX}-release/bench/BENCH_push.json" || {
  echo "BENCH_push.json is not benchmark JSON"; exit 1; }

# The replication sweep: followers x ack policy over an in-process
# primary + bootstrap-synced followers, measuring commit latency and
# the async catch-up gap. `repl` mode exits non-zero on any write
# error or follower verdict mismatch, and always emits BENCH_repl.json.
( cd "${PREFIX}-release/bench" && ./bench_net repl 40 )
[ -s "${PREFIX}-release/bench/BENCH_repl.json" ] || {
  echo "bench_net did not write BENCH_repl.json"; exit 1; }
grep -q '"benchmarks"' "${PREFIX}-release/bench/BENCH_repl.json" || {
  echo "BENCH_repl.json is not benchmark JSON"; exit 1; }

# The policy bench: rule-match throughput vs rule count + redaction
# cost (emits BENCH_policy.json), then the overhead acceptance check —
# a 64-rule engine at 0% hit rate must stay within 5% of an empty one
# on the live ExecuteQuery path (paired same-server measurement).
cmake --build "${PREFIX}-release" -j "${JOBS}" --target bench_policy
( cd "${PREFIX}-release/bench" && \
  ./bench_policy --benchmark_filter='BM_Decide(Miss|HitLast)/64' \
                 --benchmark_min_time=0.05 )
[ -s "${PREFIX}-release/bench/BENCH_policy.json" ] || {
  echo "bench_policy did not write BENCH_policy.json"; exit 1; }
grep -q '"benchmarks"' "${PREFIX}-release/bench/BENCH_policy.json" || {
  echo "BENCH_policy.json is not benchmark JSON"; exit 1; }
( cd "${PREFIX}-release/bench" && ./bench_policy overhead 300 )

# The mixed read/write sweep: writer threads racing pinned audits. The
# bench itself enforces the acceptance: under every write combo no
# shape's static facts are computed twice (facts per parsed shape
# <= 1.0) AND the writers commit, and it always emits BENCH_mixed.json.
cmake --build "${PREFIX}-release" -j "${JOBS}" --target bench_mixed
( cd "${PREFIX}-release/bench" && ./bench_mixed 3 )
[ -s "${PREFIX}-release/bench/BENCH_mixed.json" ] || {
  echo "bench_mixed did not write BENCH_mixed.json"; exit 1; }
grep -q '"benchmarks"' "${PREFIX}-release/bench/BENCH_mixed.json" || {
  echo "BENCH_mixed.json is not benchmark JSON"; exit 1; }

# Every artifact must parse as JSON, not just mention "benchmarks".
for artifact in "${PREFIX}-release"/bench/BENCH_*.json; do
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "${artifact}" ||
    { echo "${artifact} is not JSON"; exit 1; }
done

echo "CI gate passed."
