#!/usr/bin/env bash
# CI entry point: Release build + full test suite (run with the best SIMD
# backend, with DBSVEC_SIMD=off so the scalar fallback stays green, and
# with avx512 forced; the kernel-path tests also run with avx2 forced),
# a ThreadSanitizer build running the whole test suite,
# an AddressSanitizer build running the model-format, serving, fault, and
# SIMD agreement tests (malformed model files must fail with a Status, never
# with memory errors; the SoA block views must never read out of bounds),
# an UndefinedBehaviorSanitizer build over the same set, a
# DBSVEC_FAILPOINTS sweep driving the CLI end-to-end under ASan with every
# failpoint site armed via the environment (docs/ROBUSTNESS.md), and a
# serve smoke leg: the ASan server with a delay failpoint armed takes
# client traffic (JSON + binary assign, reload, an expect-504 deadline
# probe) and must drain cleanly on SIGTERM (docs/SERVING.md). A
# crash-recovery harness SIGKILLs a durable server (quiesced and
# mid-absorb) and asserts label bit-identity after restart, followed by a
# torn-journal truncation fuzz through the offline recovery oracle
# (docs/ROBUSTNESS.md). The multi-tenant registry gets two legs of its
# own: an ASan registry harness that creates three tenants over REST,
# SIGKILLs the server, and asserts per-model label bit-identity after
# recovery, and a registry.create / registry.recover failpoint sweep
# through the CLI (docs/SERVING.md).
# Run from anywhere; builds land in <repo>/build-ci-{release,tsan,asan,ubsan}.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"

echo "=== Release build + full ctest ==="
cmake -S "${repo}" -B "${repo}/build-ci-release" \
  -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${repo}/build-ci-release" -j "${jobs}"
ctest --test-dir "${repo}/build-ci-release" --output-on-failure -j "${jobs}"

echo "=== Release ctest with the scalar SIMD fallback (DBSVEC_SIMD=off) ==="
DBSVEC_SIMD=off \
  ctest --test-dir "${repo}/build-ci-release" --output-on-failure -j "${jobs}"

echo "=== Release ctest with the AVX-512 backend forced (DBSVEC_SIMD=avx512) ==="
# Forcing avx512 on a host without AVX-512F would just warn and fall back
# to auto-detect, re-running the first leg — skip it honestly instead.
if grep -q avx512f /proc/cpuinfo 2>/dev/null; then
  DBSVEC_SIMD=avx512 \
    ctest --test-dir "${repo}/build-ci-release" --output-on-failure \
    -j "${jobs}"
else
  echo "skipped: this host has no AVX-512F (the forced-avx512 leg needs it)"
fi

echo "=== Release ctest with the AVX2 backend forced (DBSVEC_SIMD=avx2) ==="
# On AVX-512 hosts auto-detect never runs the AVX2 kernels end to end
# (KernelExp included), so force them over the kernel-path tests. Without
# AVX2 the forced leg would fall back to scalar and repeat the leg above.
if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
  DBSVEC_SIMD=avx2 \
    ctest --test-dir "${repo}/build-ci-release" --output-on-failure \
    -j "${jobs}" -R 'Simd|PenaltyWeights|Smo|Svdd|Dbsvec|Determinism'
else
  echo "skipped: this host has no AVX2 (the forced-avx2 leg needs it)"
fi

echo "=== bench_budget smoke: bounded-cost SVDD sweep stays sane ==="
# Seconds, not minutes: a tiny (B, S) sweep proving the budgeted and
# sampled paths fit, agree with the exact labels, and emit their JSON.
# No speedup requirement at this size (--min-speedup stays 0).
cmake --build "${repo}/build-ci-release" -j "${jobs}" --target bench_budget
"${repo}/build-ci-release/bench/bench_budget" --smoke \
  --out="${repo}/build-ci-release/BENCH_budget_smoke.json"

echo "=== ThreadSanitizer build + full test suite ==="
cmake -S "${repo}" -B "${repo}/build-ci-tsan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDBSVEC_SANITIZE=thread \
  -DDBSVEC_BUILD_BENCHMARKS=OFF \
  -DDBSVEC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${repo}/build-ci-tsan" -j "${jobs}" --target dbsvec_tests
# Every test runs under TSan, so a new concurrent path is race-checked the
# day it lands instead of when someone adds it to a list. The suite forces
# multi-thread pools where it matters (determinism sweeps at 8 workers, the
# index concurrency conformance test, server reload-under-load, registry
# churn, idle start/shutdown loops), so this covers the pool, the sharded
# engine, the RCU engine handoff and server teardown even on small hosts.
ctest --test-dir "${repo}/build-ci-tsan" --output-on-failure -j "${jobs}"

echo "=== TSan sharded fit through the CLI (shards=4, threads=8) ==="
# One end-to-end sharded fit under TSan via the real CLI entry point: the
# grouped shard-affine fan-out, worker pinning, and the sorted merge all
# race-checked in one shot.
cmake --build "${repo}/build-ci-tsan" -j "${jobs}" --target dbsvec_cli
"${repo}/build-ci-tsan/tools/dbsvec_cli" \
  --demo=blobs --demo-n=2000 --demo-dim=4 --minpts=10 \
  --shards=4 --threads=8

echo "=== AddressSanitizer build + model/serving tests ==="
cmake -S "${repo}" -B "${repo}/build-ci-asan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDBSVEC_SANITIZE=address \
  -DDBSVEC_BUILD_BENCHMARKS=OFF \
  -DDBSVEC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${repo}/build-ci-asan" -j "${jobs}" --target dbsvec_tests \
  --target dbsvec_cli --target dbsvec_client
# The model tests fuzz truncations and bit flips of the binary format;
# under ASan any out-of-bounds parse becomes a hard failure. The SIMD
# agreement tests sweep every remainder-lane shape, so a kernel touching
# block padding it shouldn't would trip ASan here. The fault tests arm
# every failpoint site through the full fit/save/load/assign pipeline, so
# every injected failure path is leak- and overflow-checked too.
ctest --test-dir "${repo}/build-ci-asan" --output-on-failure -j "${jobs}" \
  -R 'Model|Serve|Cli|Simd|Fault|Budget|Durab|Journal'

echo "=== ASan budget sweep through the CLI (--sv-budget 0/16/128) ==="
# The bounded-cost SVDD path (docs/PERFORMANCE.md) exercised end to end
# under ASan: the exact solver (budget 0), a merge-heavy tiny budget, and
# a comfortable budget, each with the boundary-preserving sampler armed.
# The budgeted solver's merge/projection arithmetic and the sampler's
# re-check walk are exactly the kind of index-juggling ASan is for.
for budget in 0 16 128; do
  "${repo}/build-ci-asan/tools/dbsvec_cli" \
    --demo=blobs --demo-n=2000 --demo-dim=2 --minpts=10 \
    --sv-budget="${budget}" --sample-threshold=128
done

echo "=== DBSVEC_FAILPOINTS env sweep through the CLI (under ASan) ==="
# The env-var arming path is only reachable at process start, so it gets
# its own leg: each run arms one site via DBSVEC_FAILPOINTS and must exit
# either cleanly (degraded sites) or with the CLI's error exit code 1 —
# never a crash (ASan would turn memory errors into non-{0,1} exits).
cli="${repo}/build-ci-asan/tools/dbsvec_cli"
sweep_dir="$(mktemp -d)"
trap 'rm -rf "${sweep_dir}"' EXIT
"${cli}" fit --demo=blobs --demo-n=400 --demo-dim=2 --minpts=5 \
  --model-out="${sweep_dir}/model.bin" --output="${sweep_dir}/labeled.csv"
# fit --output appends the label column; strip it to get assign input, and
# prove the healthy assign works before sweeping failures through it.
cut -d, -f1-2 "${sweep_dir}/labeled.csv" > "${sweep_dir}/points.csv"
"${cli}" assign --model="${sweep_dir}/model.bin" \
  --input="${sweep_dir}/points.csv"
# site:expected-exit — injected failures on the fit path exit 1 with a
# clean error, while solver-layer failures degrade to exact expansion and
# the fit still succeeds (exit 0).
for entry in index.build:1 model.save:1 \
             kernel_cache.materialize:0 smo.solve:0 svdd.train:0; do
  site="${entry%:*}"
  expected="${entry#*:}"
  echo "--- fit with ${site}:error armed (expect exit ${expected}) ---"
  DBSVEC_FAILPOINTS="${site}:error" \
    "${cli}" fit --demo=blobs --demo-n=400 --demo-dim=2 --minpts=5 \
      --model-out="${sweep_dir}/model-armed.bin" && status=0 || status=$?
  if [ "${status}" -ne "${expected}" ]; then
    echo "fit sweep: ${site} exited ${status}, expected ${expected}" >&2
    exit 1
  fi
done
for site in csv.read model.load assign.batch thread_pool.task; do
  echo "--- assign with ${site}:error armed ---"
  DBSVEC_FAILPOINTS="${site}:error" \
    "${cli}" assign --model="${sweep_dir}/model.bin" \
      --input="${sweep_dir}/points.csv" && status=0 || status=$?
  if [ "${status}" -ne 1 ]; then
    echo "assign sweep: ${site} exited ${status}, expected 1" >&2
    exit 1
  fi
done
# Degraded-but-successful fit: nonconverged solves must be surfaced, not
# hidden — the summary line is part of the CLI contract.
DBSVEC_FAILPOINTS="smo.solve:nonconverge" \
  "${cli}" fit --demo=blobs --demo-n=400 --demo-dim=2 --minpts=5 \
    --model-out="${sweep_dir}/model-degraded.bin" \
  | grep -q '^degraded: nonconverged_solves='

echo "=== Serve smoke under ASan: failpoints, client traffic, SIGTERM ==="
# The server runs under ASan with the assign-path delay failpoint armed for
# its whole life, so every request crosses an injected slowdown. The load
# generator drives JSON and binary assigns, a reload swap, and a
# deadline probe that must surface as 504; finally SIGTERM must drain
# in-flight work and exit 0 with the clean-shutdown banner.
client="${repo}/build-ci-asan/tools/dbsvec_client"
serve_log="${sweep_dir}/serve.log"
DBSVEC_FAILPOINTS="assign.batch:delay_ms:20" \
  "${cli}" serve --model="${sweep_dir}/model.bin" --port=0 --workers=2 \
  > "${serve_log}" 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' \
    "${serve_log}" 2>/dev/null || true)"
  [ -n "${port}" ] && break
  if ! kill -0 "${serve_pid}" 2>/dev/null; then
    echo "serve smoke: server died before listening" >&2
    cat "${serve_log}" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "${port}" ]; then
  echo "serve smoke: no listening banner within 10s" >&2
  cat "${serve_log}" >&2
  exit 1
fi
"${client}" --mode=health --port="${port}" --quiet
"${client}" --mode=assign --port="${port}" --requests=20 --batch=16 \
  --threads=2 --dim=2 --quiet
"${client}" --mode=assign --port="${port}" --requests=20 --batch=16 \
  --threads=2 --dim=2 --binary --quiet
"${client}" --mode=reload --port="${port}" \
  --reload-model="${sweep_dir}/model.bin" --quiet
# The armed 20ms delay plus a 5ms deadline must produce at least one 504.
"${client}" --mode=assign --port="${port}" --requests=5 --batch=4 \
  --threads=1 --dim=2 --deadline-ms=5 --expect-status=504 --quiet
"${client}" --mode=statz --port="${port}" --quiet
kill -TERM "${serve_pid}"
serve_status=0
wait "${serve_pid}" || serve_status=$?
if [ "${serve_status}" -ne 0 ]; then
  echo "serve smoke: SIGTERM shutdown exited ${serve_status}" >&2
  cat "${serve_log}" >&2
  exit 1
fi
grep -q 'shut down cleanly' "${serve_log}" || {
  echo "serve smoke: clean-shutdown banner missing" >&2
  cat "${serve_log}" >&2
  exit 1
}

echo "=== Crash-recovery harness under ASan: SIGKILL, restart, bit-identity ==="
# A durable server (--fsync=always) is killed with SIGKILL — once quiesced
# and once mid-absorb with a delay failpoint stretching the window — and
# restarted from its snapshot + journal. Labels must be bit-identical to
# the pre-kill fixpoint, and the offline recovery oracle (assign with
# --snapshot/--journal) must agree with the restarted server
# (docs/ROBUSTNESS.md). Absorption during a label dump can itself grow the
# overlay, so dumps are repeated until two consecutive passes agree: at
# that fixpoint a dump is a pure read and survives kill/restart unchanged.
crash_dir="${sweep_dir}/crash"
mkdir -p "${crash_dir}"
snapshot="${crash_dir}/model.ckpt"
journal="${crash_dir}/model.wal"
durable_log="${crash_dir}/serve.log"

start_durable_serve() {
  # Args: logfile [extra env as KEY=VALUE...]; sets serve_pid and port.
  local log="$1"
  shift
  env "$@" "${cli}" serve --model="${sweep_dir}/model.bin" --port=0 \
    --workers=2 --durable --fsync=always \
    --snapshot="${snapshot}" --journal="${journal}" \
    > "${log}" 2>&1 &
  serve_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' \
      "${log}" 2>/dev/null || true)"
    [ -n "${port}" ] && break
    if ! kill -0 "${serve_pid}" 2>/dev/null; then
      echo "crash harness: server died before listening" >&2
      cat "${log}" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "${port}" ]; then
    echo "crash harness: no listening banner within 10s" >&2
    cat "${log}" >&2
    exit 1
  fi
}

dump_labels_fixpoint() {
  # Dump labels for points.csv until two consecutive passes agree; the
  # converged dump lands in $1.
  local out="$1"
  local prev="${crash_dir}/dump.prev"
  rm -f "${prev}"
  local converged=""
  for _ in $(seq 1 10); do
    "${client}" --mode=assign --port="${port}" --dim=2 \
      --input="${sweep_dir}/points.csv" --labels-out="${out}" --quiet
    if [ -f "${prev}" ] && cmp -s "${prev}" "${out}"; then
      converged=1
      break
    fi
    cp "${out}" "${prev}"
  done
  if [ -z "${converged}" ]; then
    echo "crash harness: label dump did not reach a fixpoint" >&2
    exit 1
  fi
}

# --- Phase 1: quiesced kill. Absorb traffic, converge, SIGKILL, restart,
# and the restarted server must serve the exact same labels.
start_durable_serve "${durable_log}"
grep -q 'serve: durable' "${durable_log}" || {
  echo "crash harness: durable banner missing" >&2
  cat "${durable_log}" >&2
  exit 1
}
"${client}" --mode=assign --port="${port}" --requests=20 --batch=16 \
  --threads=2 --dim=2 --quiet
dump_labels_fixpoint "${crash_dir}/labels.before"
kill -9 "${serve_pid}"
wait "${serve_pid}" 2>/dev/null || true
start_durable_serve "${durable_log}.2"
grep -q 'recovered:' "${durable_log}.2" || {
  echo "crash harness: recovery banner missing after restart" >&2
  cat "${durable_log}.2" >&2
  exit 1
}
"${client}" --mode=assign --port="${port}" --dim=2 \
  --input="${sweep_dir}/points.csv" \
  --labels-out="${crash_dir}/labels.after" --quiet
cmp "${crash_dir}/labels.before" "${crash_dir}/labels.after" || {
  echo "crash harness: labels diverged across SIGKILL + recovery" >&2
  exit 1
}

# --- Phase 2: kill mid-absorb. The delay failpoint inside the refresh path
# guarantees the SIGKILL lands while an absorb (journal append included) is
# in flight; recovery must truncate any torn tail, never crash, and agree
# with the offline oracle recovering from the same snapshot + journal.
"${client}" --mode=statz --port="${port}" --quiet | grep -q '"durability"' || {
  echo "crash harness: statz durability section missing" >&2
  exit 1
}
kill -9 "${serve_pid}"
wait "${serve_pid}" 2>/dev/null || true
start_durable_serve "${durable_log}.3" \
  DBSVEC_FAILPOINTS="serve.refresh:delay_ms:5"
"${client}" --mode=assign --port="${port}" --requests=50 --batch=8 \
  --threads=2 --dim=2 --quiet &
traffic_pid=$!
sleep 0.4
kill -9 "${serve_pid}"
wait "${serve_pid}" 2>/dev/null || true
wait "${traffic_pid}" 2>/dev/null || true  # Traffic dies with the server.
start_durable_serve "${durable_log}.4"
dump_labels_fixpoint "${crash_dir}/labels.midkill"
kill -TERM "${serve_pid}"
wait "${serve_pid}" || {
  echo "crash harness: clean shutdown after recovery failed" >&2
  cat "${durable_log}.4" >&2
  exit 1
}
# Offline oracle: recover the identical state through the CLI (the journal
# is detached for a read-only process, so this mutates nothing) and the
# labels must match the restarted server's fixpoint.
"${cli}" assign --model="${sweep_dir}/model.bin" \
  --snapshot="${snapshot}" --journal="${journal}" \
  --input="${sweep_dir}/points.csv" \
  --output="${crash_dir}/oracle.csv"
cut -d, -f3 "${crash_dir}/oracle.csv" > "${crash_dir}/labels.oracle"
cmp "${crash_dir}/labels.midkill" "${crash_dir}/labels.oracle" || {
  echo "crash harness: server recovery disagrees with the offline oracle" >&2
  exit 1
}

echo "=== Torn-journal fuzz under ASan: truncated tails must recover ==="
# Chop the live journal at awkward byte counts (mid-record, mid-header,
# empty) and recover each stump through the CLI oracle: always exit 0,
# never crash — ASan turns any overread of a torn record into a failure.
wal_bytes="$(stat -c %s "${journal}")"
for cut_bytes in "${wal_bytes}" $((wal_bytes - 1)) $((wal_bytes - 13)) \
                 $((wal_bytes / 2)) 21 20 7 0; do
  [ "${cut_bytes}" -ge 0 ] || continue
  cp "${journal}" "${crash_dir}/torn.wal.orig"
  head -c "${cut_bytes}" "${crash_dir}/torn.wal.orig" \
    > "${crash_dir}/torn.wal"
  "${cli}" assign --model="${sweep_dir}/model.bin" \
    --snapshot="${snapshot}" --journal="${crash_dir}/torn.wal" \
    --input="${sweep_dir}/points.csv" \
    --output="${crash_dir}/torn.out.csv" || {
    echo "torn fuzz: recovery failed at ${cut_bytes} bytes" >&2
    exit 1
  }
done

echo "=== Registry harness under ASan: three tenants, SIGKILL, recovery ==="
# One registry server (--data-dir) hosts three named models created over
# REST from the same artifact. Mixed traffic (round-robin JSON assigns
# plus chunked streaming bodies) grows each tenant's overlay; after a
# SIGKILL the restarted server must recover every model and serve labels
# bit-identical to each tenant's pre-kill fixpoint (docs/SERVING.md).
reg_dir="${sweep_dir}/registry"
reg_data="${reg_dir}/data"
reg_log="${reg_dir}/serve.log"
mkdir -p "${reg_dir}"

start_registry_serve() {
  # Args: logfile [extra env as KEY=VALUE...]; sets serve_pid and port.
  local log="$1"
  shift
  env "$@" "${cli}" serve --data-dir="${reg_data}" --port=0 --workers=2 \
    --durable --fsync=always \
    > "${log}" 2>&1 &
  serve_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' \
      "${log}" 2>/dev/null || true)"
    [ -n "${port}" ] && break
    if ! kill -0 "${serve_pid}" 2>/dev/null; then
      echo "registry harness: server died before listening" >&2
      cat "${log}" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "${port}" ]; then
    echo "registry harness: no listening banner within 10s" >&2
    cat "${log}" >&2
    exit 1
  fi
}

dump_tenant_fixpoint() {
  # Args: tenant outfile — dump the tenant's labels for points.csv until
  # two consecutive passes agree (absorption during a dump can itself
  # grow that tenant's overlay, same as the single-model harness above).
  local tenant="$1"
  local out="$2"
  local prev="${reg_dir}/dump.prev"
  rm -f "${prev}"
  local converged=""
  for _ in $(seq 1 10); do
    "${client}" --mode=assign --port="${port}" --model="${tenant}" \
      --dim=2 --input="${sweep_dir}/points.csv" --labels-out="${out}" \
      --quiet
    if [ -f "${prev}" ] && cmp -s "${prev}" "${out}"; then
      converged=1
      break
    fi
    cp "${out}" "${prev}"
  done
  if [ -z "${converged}" ]; then
    echo "registry harness: ${tenant} dump did not reach a fixpoint" >&2
    exit 1
  fi
}

start_registry_serve "${reg_log}"
grep -q 'serve: registry' "${reg_log}" || {
  echo "registry harness: registry banner missing" >&2
  cat "${reg_log}" >&2
  exit 1
}
for tenant in tenant_a tenant_b tenant_c; do
  "${client}" --mode=create --port="${port}" --model="${tenant}" \
    --model-path="${sweep_dir}/model.bin" >/dev/null
done
# The REST contract around the happy path: a duplicate name answers 409,
# a name the filesystem could reinterpret answers 400, a ghost answers
# 404 — all without disturbing the three live tenants.
"${client}" --mode=create --port="${port}" --model=tenant_a \
  --model-path="${sweep_dir}/model.bin" --expect-status=409 >/dev/null
"${client}" --mode=create --port="${port}" --model='Bad.Name' \
  --model-path="${sweep_dir}/model.bin" --expect-status=400 >/dev/null
"${client}" --mode=delete --port="${port}" --model=ghost \
  --expect-status=404 >/dev/null
# Round-robin JSON traffic plus streaming bodies across all three
# tenants, then a per-tenant fixpoint dump.
"${client}" --mode=assign --port="${port}" \
  --models=tenant_a,tenant_b,tenant_c --requests=30 --batch=8 \
  --threads=3 --dim=2 --quiet
"${client}" --mode=assign --port="${port}" \
  --models=tenant_a,tenant_b,tenant_c --requests=12 --batch=8 \
  --threads=3 --dim=2 --stream --frames=3 --quiet
for tenant in tenant_a tenant_b tenant_c; do
  dump_tenant_fixpoint "${tenant}" "${reg_dir}/${tenant}.before"
done
kill -9 "${serve_pid}"
wait "${serve_pid}" 2>/dev/null || true
start_registry_serve "${reg_log}.2"
grep -q 'recovered=3 failed=0' "${reg_log}.2" || {
  echo "registry harness: restart did not recover all three models" >&2
  cat "${reg_log}.2" >&2
  exit 1
}
for tenant in tenant_a tenant_b tenant_c; do
  "${client}" --mode=assign --port="${port}" --model="${tenant}" \
    --dim=2 --input="${sweep_dir}/points.csv" \
    --labels-out="${reg_dir}/${tenant}.after" --quiet
  cmp "${reg_dir}/${tenant}.before" "${reg_dir}/${tenant}.after" || {
    echo "registry harness: ${tenant} diverged across SIGKILL" >&2
    exit 1
  }
done
kill -TERM "${serve_pid}"
wait "${serve_pid}" || {
  echo "registry harness: clean shutdown after recovery failed" >&2
  cat "${reg_log}.2" >&2
  exit 1
}

echo "=== Registry failpoint sweep under ASan (registry.create/.recover) ==="
# registry.create armed: seeding the default model through the import
# path must exit 1 with a clean error and leave no half-created model
# directory behind — never crash or hang.
rm -rf "${reg_dir}/create-armed"
DBSVEC_FAILPOINTS="registry.create:error" \
  timeout 60 "${cli}" serve --data-dir="${reg_dir}/create-armed" \
    --model="${sweep_dir}/model.bin" --port=0 --workers=2 \
    > "${reg_dir}/create-armed.log" 2>&1 && status=0 || status=$?
if [ "${status}" -ne 1 ]; then
  echo "registry sweep: create-armed serve exited ${status}, expected 1" >&2
  cat "${reg_dir}/create-armed.log" >&2
  exit 1
fi
if [ -d "${reg_dir}/create-armed/default" ]; then
  echo "registry sweep: failed create left a ghost model dir" >&2
  exit 1
fi
# registry.recover armed: every model under the data dir is skipped, but
# the server must come up and answer /v1/healthz anyway — per-model
# recovery failures degrade, they don't take down the process.
start_registry_serve "${reg_log}.3" \
  DBSVEC_FAILPOINTS="registry.recover:error"
grep -q 'recovered=0 failed=3' "${reg_log}.3" || {
  echo "registry sweep: recover-armed banner wrong" >&2
  cat "${reg_log}.3" >&2
  exit 1
}
"${client}" --mode=health --port="${port}" --quiet
kill -TERM "${serve_pid}"
wait "${serve_pid}" || {
  echo "registry sweep: recover-armed shutdown failed" >&2
  exit 1
}
# Disarmed restart: the same data dir recovers all three models again, so
# the armed run mutated nothing.
start_registry_serve "${reg_log}.4"
grep -q 'recovered=3 failed=0' "${reg_log}.4" || {
  echo "registry sweep: post-sweep restart lost models" >&2
  cat "${reg_log}.4" >&2
  exit 1
}
kill -TERM "${serve_pid}"
wait "${serve_pid}"

echo "=== bench_durability smoke: fsync sweep + recovery stay deterministic ==="
cmake --build "${repo}/build-ci-release" -j "${jobs}" \
  --target bench_durability
"${repo}/build-ci-release/bench/bench_durability" \
  --n=4000 --traffic=4000 --minpts=20 \
  --out="${repo}/build-ci-release/BENCH_durability_smoke.json"

echo "=== UndefinedBehaviorSanitizer build + model/serving/fault tests ==="
cmake -S "${repo}" -B "${repo}/build-ci-ubsan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDBSVEC_SANITIZE=undefined \
  -DDBSVEC_BUILD_BENCHMARKS=OFF \
  -DDBSVEC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${repo}/build-ci-ubsan" -j "${jobs}" --target dbsvec_tests
# -fno-sanitize-recover turns any UB (signed overflow in an index
# computation, misaligned load in the serializers, ...) into a test
# failure rather than a diagnostic that scrolls by.
ctest --test-dir "${repo}/build-ci-ubsan" --output-on-failure -j "${jobs}" \
  -R 'Model|Serve|Cli|Simd|Fault|Durab|Journal'

echo "=== CI green ==="
