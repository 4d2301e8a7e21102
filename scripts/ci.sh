#!/usr/bin/env bash
# Repo-wide verification gate: formatting, vet, cross-GOARCH builds,
# pinned staticcheck, the npdplint invariant suite plus its hot-path
# codegen regression gate, the full test suite under the race detector
# (the kernel tests run every dispatch level the host has: the band
# kernel on AVX-512, on AVX2 (or NEON), and in Go), every kernel
# benchmark and every root-package benchmark once, the benchmark's
# smoke test
# (bench/ is its own module, so go test ./... never builds it), short
# fuzz smokes of a checkpoint resumed over a rewritten index, of the
# spill-index and task-message codecs, of kernel equivalence, and of the
# bulk cell codec every seal, slot and frame encodes through, and smoke
# fault-injection solves proving
# the resilience layer end to end: 5% loud faults healed through
# retries, and 5% silent corruption caught by the block seals and
# healed bit-identically at single and double precision (fallback
# disabled in both so recovery can't mask a bug), plus a cluster chaos smoke that SIGKILLs a worker
# mid-wavefront while corrupting boundary blocks and demands a
# bit-identical finish — once in memory, once with the coordinator's
# table paged through a spill file — a coordinator-kill failover smoke that
# SIGKILLs the primary coordinator mid-wavefront and demands the warm
# standby take over and finish bit-identically, and an out-of-core
# disk-fault smoke that pages a solve through a budget-bounded working
# set while injecting torn spill writes (must heal), bit flips on
# page-in reads (must heal) and ENOSPC (must degrade gracefully), all
# bit-identical to serial. The pager's concurrency stress and
# committer-join tests (on durable pagers, the ones that commit) also
# run twenty times under the race detector, the checkpoint resume tests
# (a resume after silent corruption must match serial or fail typed, in
# one process and on the cluster) five times, the cluster package's
# tests five times
# (frame buffers change owner between the event loop, the session
# writers and the readers; the slow-standby test rides along there),
# its coordinator-HA tests ten times (a standby's switch from following
# to leading races the handshakes of the one accept path, and the
# primary's replication stream is a session of its event loop), and
# the harness failover experiment ten times.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [[ -n "${unformatted}" ]]; then
    echo "gofmt needed on:" >&2
    echo "${unformatted}" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

# The vector kernels ship hand-written assembly for two GOARCHes; vet's
# asmdecl checker validates the .s files against their Go stub
# declarations only when that arch's files are in the build, so run the
# kernel package under both (cross runs only load the compiler).
echo "== go vet (asmdecl) internal/kernel on amd64 + arm64"
GOARCH=amd64 go vet ./internal/kernel ./internal/simd
GOARCH=arm64 go vet ./internal/kernel ./internal/simd

# CPU detection and the assembly stubs are per-GOARCH files (amd64
# detection, arm64 NEON, panic stubs everywhere else), so build the
# whole module for an arch with no assembly (386) and for arm64 too.
echo "== go build ./... on 386 + arm64"
GOARCH=386 go build ./...
GOARCH=arm64 go build ./...

# staticcheck is mandatory and pinned, so every run checks the same
# rule set regardless of what the host has installed. The one
# sanctioned skip is a toolchain that cannot fetch the module at all
# (hermetic/offline builds) — and that skip is loud, never silent.
echo "== staticcheck (pinned, mandatory)"
staticcheck_version="2025.1.1"
if staticcheck_out="$(go run "honnef.co/go/tools/cmd/staticcheck@${staticcheck_version}" ./... 2>&1)"; then
    [[ -z "${staticcheck_out}" ]] || echo "${staticcheck_out}"
elif grep -qiE "dial tcp|no such host|connection refused|i/o timeout|proxyconnect|module lookup disabled|not in std" <<<"${staticcheck_out}"; then
    echo "NOTICE: staticcheck SKIPPED: cannot fetch honnef.co/go/tools@${staticcheck_version} (offline toolchain)" >&2
    echo "${staticcheck_out}" | tail -n 3 >&2
else
    echo "${staticcheck_out}" >&2
    echo "staticcheck@${staticcheck_version} failed" >&2
    exit 1
fi

# govulncheck stays advisory: a published vuln in a dependency should
# not brick unrelated development, but it must be visible in the log.
if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck ./... (advisory)"
    govulncheck ./... || echo "govulncheck reported findings (non-fatal)"
else
    echo "== govulncheck not installed; skipping"
fi

echo "== npdplint ./... (repo invariant suite, 8 analyzers)"
# Custom analyzers: atomic publication discipline, context dispatch
# contract, hot-path purity, resilience error-drop rules (watch list
# discovered from //npdplint:watch directives), wire-bounded
# allocations, goroutine lifecycles, net.Conn deadline regimes, and
# verify-before-trust ordering for sealed payloads and epoch fences.
# Suppressions require a justified //nolint:npdplint, which the tool
# itself audits. The whole suite must land inside a wall-clock budget:
# a lint gate developers wait on has a latency contract too.
npdplint_budget_s=180
npdplint_start="$(date +%s)"
go run ./cmd/npdplint ./...
# Self-lint: the analyzer suite obeys its own invariants. Kept as a
# separate pass so a finding inside internal/analysis names itself in
# the log rather than hiding in the module-wide sweep above.
echo "== npdplint self-lint (./internal/analysis/...)"
go run ./cmd/npdplint ./internal/analysis/...
npdplint_elapsed=$(($(date +%s) - npdplint_start))
echo "npdplint wall time: ${npdplint_elapsed}s (budget ${npdplint_budget_s}s)"
if ((npdplint_elapsed > npdplint_budget_s)); then
    echo "npdplint exceeded its ${npdplint_budget_s}s wall-clock budget (took ${npdplint_elapsed}s)" >&2
    exit 1
fi

echo "== codegen gate (hot-path escape/bounds-check baseline)"
# Compiler-output half of the hotpath invariant: diffs -m and check_bce
# diagnostics in //npdp:hotpath kernels against the golden baseline.
scripts/codegen_gate.sh

echo "== go test -race ./..."
# The harness package replays every paper table/figure; under the race
# detector that legitimately exceeds go test's default 10m per-package
# timeout, so set an explicit generous one.
go test -race -timeout 30m ./...

echo "== go test -race -count=20 (pager concurrency stress, committer join)"
# Loads, spills, flushes and commits run outside the pager's mutex, so
# one pass of the stress test samples only one interleaving; twenty
# under the race detector sample more, and as many of Commit, Close and
# Discard racing the background committer's exit. Each test makes a
# durable pager and requests its commits itself.
go test -race -count=20 -run '^TestConcurrentPagerStress$|^TestCommitAndCloseJoinBackgroundCommit$|^TestDiscardJoinsBackgroundCommit$' ./internal/pager

echo "== go test -race -count=5 (checkpoint resume, after silent corruption too)"
# A sealing run that injects corrupt faults is cut off, then resumed
# from its checkpoint, at the package level (40 seeds, with and without
# ENOSPC) and through the public API (12 seeds, cut at spread
# deadlines): every resume must match serial or fail typed. A killed
# in-memory solve and an interrupted cluster run resume from theirs.
# Commits run beside the pool and the event loop, and where the cut
# lands depends on timing, so five passes under the race detector
# sample more interleavings and cuts.
go test -race -count=5 -run '^TestPagedResumeNeverTrustsCorruptBlock$' ./internal/npdp
go test -race -count=5 -run '^TestPagedSpillResumeNeverTrustsCorruptBlock$|^TestSolveResumeBitIdentical$' .
go test -race -count=5 -run '^TestClusterCheckpointResume$' ./internal/cluster

echo "== go test -race -count=5 ./internal/cluster (frame-buffer ownership)"
# Pooled frame buffers pass between the event loop, the session writers
# and the session readers, so one pass under the race detector samples
# one interleaving of those hand-offs; five sample more (about two
# minutes on a 2-vCPU host).
go test -race -count=5 ./internal/cluster

echo "== go test -race -count=10 (coordinator HA: failover, fences, follower and primary wire)"
# A standby is a coordinator in its follower phase; when its lease
# expires the same event loop leads, while the accept path's handshakes
# may still be posting hellos read before the switch. On the primary,
# the dialer hands each welcomed stream to the event loop, which may
# already be shutting down. Ten passes under the race detector sample
# more of those interleavings (about 5 s per pass without -race, 16 s
# with it, on a 2-vCPU host).
go test -race -count=10 -run '^TestFailover|^TestSplitBrainFencedWrites$|^TestTakeover|^TestStandby|^TestVersionMismatchFailsFast$|^TestPrimaryReplicator' ./internal/cluster

echo "== go test -count=10 (harness failover experiment)"
# The experiment kills the primary once the standby has replicated a
# quarter of the tasks; ten runs check the kill lands mid-wavefront
# every time.
go test -count=10 -run '^TestFailoverExperiment$' ./internal/harness

echo "== kernel and root-package benchmarks, one iteration each"
# Benchmarks never run under go test ./..., so a benchmark body the
# kernel or engine code broke would otherwise go unnoticed until someone
# timed it.
go test -run '^$' -bench . -benchtime 1x ./internal/kernel
go test -run '^$' -bench . -benchtime 1x .

echo "== bench smoke: (cd bench && go test .)"
# Every benchmark workload at n=512 against this checkout's sources, so a
# change to anything the benchmark calls fails here rather than in the
# next benchmark run.
(cd bench && go test .)

echo "== go test -race (forced pure-Go kernels: CELLNPDP_FORCE_SCALAR=1, GOAMD64=v1)"
# The vector dispatch has three levels of one band kernel: AVX-512,
# AVX2 (or NEON), and the pure-Go fallback every other machine runs.
# The kernel tests above run each level the host has
# through a test-only seam; this pass instead forces the fallback
# process-wide — the env var folds into detection at init — and pins
# GOAMD64=v1 so the compiler cannot assume AVX either, then re-runs the
# packages whose kernels and dispatch state differ between the worlds.
CELLNPDP_FORCE_SCALAR=1 GOAMD64=v1 go test -race -timeout 30m \
    ./internal/kernel ./internal/simd ./internal/npdp ./internal/perfmodel \
    ./internal/fourrussians ./internal/zuker .

# Native fuzzing only exists on a few GOOS/GOARCH pairs; anywhere else
# `go test -fuzz` fails with an opaque flag error, so check up front
# and fail with a message that says what is actually missing.
goos="$(go env GOOS)"
goarch="$(go env GOARCH)"
case "${goos}/${goarch}" in
linux/amd64 | linux/arm64 | darwin/amd64 | darwin/arm64 | windows/amd64 | windows/arm64) ;;
*)
    echo "error: the fuzz smokes need native fuzzing support (linux, darwin or windows on amd64/arm64); this toolchain is ${goos}/${goarch}" >&2
    exit 1
    ;;
esac

echo "== fuzz smoke: checkpoint resume over a rewritten index (20s)"
# A short adversarial pass over a checkpoint's index: whatever bytes it
# holds, a resume must reproduce the serial table or fail, never crash
# or silently resume bad state.
go test -run='^$' -fuzz FuzzCheckpointRoundTrip -fuzztime 20s .

echo "== smoke: fault-injected parallel solve (5% rate, retries, no fallback)"
go run ./cmd/cellnpdp -n 300 -engine parallel -timeout 30m \
    -faultrate 0.05 -faultseed 7 -retries 3 -fallback=false

echo "== fuzz smoke: kernel equivalence (20s)"
# Every selectable min-plus kernel (Go panel, CB-step, and the panel
# dispatch at each dispatch level the host has: AVX-512 bands, AVX2 or
# NEON bands, Go fallback) against the scalar reference on arbitrary
# tiles with ±Inf sentinels, one band of a drawn shape against the Go
# strips with sentinels around it, plus stage 2 at each level on
# CB-aligned tiles, at both widths — each width draws its own
# values, so float64 runs its own dispatchers on full-mantissa inputs —
# with a flag that scatters ±0 and NaN so a reordered term shows as a
# flipped zero sign; comparison is bit-exact.
go test -run='^$' -fuzz FuzzKernelEquivalence -fuzztime 20s ./internal/kernel

echo "== fuzz smoke: cell codec (20s)"
# The bulk cell codec under every seal, spill slot, checkpoint and wire
# frame: decoding arbitrary bytes and re-encoding them must return the
# same bytes, equal to the per-cell element stream, at both widths.
go test -run='^$' -fuzz FuzzCellCodec -fuzztime 20s ./internal/tableio

echo "== smoke: self-healing solve (5% silent corruption, bit-identical to serial; single and double)"
# Inject silent bit flips (no error return — only the block seals can
# catch them), heal with fallback disabled so the poisoned-cone path is
# what's proven, and demand bit-identical output to the serial engine.
# Run under the race detector: sealing and auditing race the pool. The
# double arm runs the float64 kernels (the AVX-512 band kernels on
# AVX-512 hosts, the AVX2 float64 band on AVX2 hosts). The
# grep proves a heal fired in each arm — a run that corrupted nothing
# would pass vacuously.
healref="$(mktemp)"
heallog="$(mktemp)"
trap 'rm -f "${healref}" "${heallog}"' EXIT
for prec in single double; do
    go run ./cmd/cellnpdp -n 300 -prec "${prec}" -engine serial -save "${healref}"
    go run -race ./cmd/cellnpdp -n 300 -prec "${prec}" -engine parallel -timeout 30m \
        -faultkinds corrupt -faultrate 0.05 -faultseed 7 \
        -heal -fallback=false -check "${healref}" 2>&1 | tee "${heallog}"
    if ! grep -qE "^detected [1-9][0-9]* corrupt blocks; [1-9][0-9]* heal rounds" "${heallog}"; then
        echo "self-healing smoke (${prec}): no heal fired" >&2
        exit 1
    fi
done

echo "== fuzz smoke: spill index codec (20s)"
# Same discipline for the NPSX spill index: truncated, bit-flipped or
# oversized index bytes must be rejected, never crash or page in from
# a slot the committed index does not vouch for.
go test -run='^$' -fuzz FuzzSpillRoundTrip -fuzztime 20s ./internal/pager

echo "== fuzz smoke: task-message decoder (20s)"
# decodeTaskMsg parses every dispatch, result and replication record
# off the network: arbitrary payloads must be rejected or re-encode to
# the same bytes, never crash or over-allocate.
go test -run='^$' -fuzz FuzzTaskMsg -fuzztime 20s ./internal/cluster

echo "== smoke: out-of-core disk faults (torn writes + bit flips healed, ENOSPC degraded, verify)"
# The paged solve under the race detector, three arms of the
# disk-failure ladder. Arm 1: torn spill writes — the CRC trailer lands
# in the missing suffix, so the refetch detects corruption and the solve
# must demote the block's cone to pristine and recompute (page_heals).
# Arm 2: bit rot on page-in reads — each flip fails the slot's CRC
# outside the pager's mutex, concurrently with the other loaders, and
# must heal by a re-read or through the cone (page_heals). Arm 3: every
# spill write draws ENOSPC — the pager must degrade to a growing
# in-memory working set and still finish (enospc_degradations). Every
# run must be bit-identical to the serial engine, and the greps prove
# each failure actually fired — a run where nothing tore, nothing
# flipped and nothing filled up would pass vacuously.
ooc_ref="$(mktemp)"
ooc_log="$(mktemp)"
trap 'rm -f "${healref}" "${heallog}" "${ooc_ref}" "${ooc_log}"' EXIT
go run ./cmd/cellnpdp -n 400 -engine serial -save "${ooc_ref}"
go run -race ./cmd/cellnpdp -n 400 -engine parallel -workers 2 \
    -block 1024 -memory-budget 16384 -timeout 10m \
    -disk-faultrate 0.02 -disk-faultseed 11 -disk-faultkinds torn \
    -check "${ooc_ref}" 2>&1 | tee "${ooc_log}"
grep -q "verified against .*: identical" "${ooc_log}"
if grep "^paged " "${ooc_log}" | grep -qE " page_heals=0 "; then
    echo "out-of-core smoke: torn writes never triggered a heal" >&2
    exit 1
fi
go run -race ./cmd/cellnpdp -n 400 -engine parallel -workers 2 \
    -block 1024 -memory-budget 16384 -timeout 10m \
    -disk-faultrate 0.02 -disk-faultseed 11 -disk-faultkinds flip \
    -check "${ooc_ref}" 2>&1 | tee "${ooc_log}"
grep -q "verified against .*: identical" "${ooc_log}"
if grep "^paged " "${ooc_log}" | grep -qE " page_heals=0 "; then
    echo "out-of-core smoke: read bit flips never triggered a heal" >&2
    exit 1
fi
go run -race ./cmd/cellnpdp -n 400 -engine parallel -workers 2 \
    -block 1024 -memory-budget 16384 -timeout 10m \
    -disk-faultrate 0.3 -disk-faultseed 9 -disk-faultkinds enospc \
    -check "${ooc_ref}" 2>&1 | tee "${ooc_log}"
grep -q "verified against .*: identical" "${ooc_log}"
if grep "^paged " "${ooc_log}" | grep -qE " enospc_degradations=0 "; then
    echo "out-of-core smoke: ENOSPC injection never degraded the pager" >&2
    exit 1
fi

echo "== smoke: cluster chaos (3 workers, seeded SIGKILL + silent corruption, heal, verify; in memory and paged)"
# Loopback coordinator/worker cluster under the race detector: the
# seeded chaos schedule SIGKILLs one worker mid-wavefront and every
# worker silently corrupts ~25% of its tasks; the coordinator must
# redispatch the dead worker's in-flight tasks, heal each seal mismatch
# through the poisoned cone, and finish bit-identical to the serial
# engine. The paged arm runs the same chaos with the coordinator's
# table in a private spill file under a 200 KB budget, so every heal
# demotes through the pager. The greps prove the chaos (and the paging)
# actually fired — a run where nothing died, nothing corrupted or
# nothing spilled would pass vacuously.
cluster_log="$(mktemp)"
trap 'rm -f "${healref}" "${heallog}" "${ooc_ref}" "${ooc_log}" "${cluster_log}"' EXIT
for arm in memory paged; do
    paged_args=()
    if [[ "${arm}" == paged ]]; then
        paged_args=(-memory-budget 200000)
    fi
    go run -race ./cmd/cellnpdp cluster -n 704 -cluster-workers 3 \
        -chaos-kills 1 -chaos-seed 5 -faultrate 0.25 -faultseed 42 \
        ${paged_args[@]+"${paged_args[@]}"} \
        -heal -verify -timeout 10m 2>&1 | tee "${cluster_log}"
    grep -q "verified against serial engine: identical" "${cluster_log}"
    stats="$(grep "cluster: tasks=" "${cluster_log}")"
    if grep -qE " deaths=0 " <<<"${stats}"; then
        echo "cluster chaos smoke (${arm}): no worker death observed" >&2
        exit 1
    fi
    if grep -qE " mismatches=0 " <<<"${stats}"; then
        echo "cluster chaos smoke (${arm}): no seal mismatch observed" >&2
        exit 1
    fi
    if [[ "${arm}" == paged ]]; then
        pstats="$(grep "^cluster paged: " "${cluster_log}")"
        if grep -qE " spilled_blocks=0 " <<<"${pstats}"; then
            echo "cluster chaos smoke (paged): the budget never spilled a block" >&2
            exit 1
        fi
    fi
done

echo "== smoke: coordinator-kill failover (warm standby, SIGKILL primary mid-wavefront, verify)"
# Coordinator HA under the race detector: the primary coordinator runs
# as a subprocess replicating its completion log to an in-process warm
# standby; once enough tasks have REPLICATED, the primary is SIGKILLed
# mid-wavefront, the standby's lease expires, it takes over at epoch 2,
# the workers re-home through the epoch fence, and the resumed solve
# must finish bit-identical to the serial engine. The binary itself
# fails if the primary finishes before the kill fires, and the greps
# prove the takeover actually happened — failover that never fired
# would pass vacuously.
failover_log="$(mktemp)"
trap 'rm -f "${healref}" "${heallog}" "${ooc_ref}" "${ooc_log}" "${cluster_log}" "${failover_log}"' EXIT
go run -race ./cmd/cellnpdp cluster -n 1536 -cluster-workers 3 \
    -chaos-kill-coordinator -heartbeat 25ms -deadline 500ms -lease 1s \
    -verify -timeout 10m 2>&1 | tee "${failover_log}"
grep -q "standby: takeover epoch=" "${failover_log}"
grep -q "verified against serial engine: identical" "${failover_log}"
fstats="$(grep "cluster: tasks=" "${failover_log}")"
if grep -qE " failovers=0 " <<<"${fstats}"; then
    echo "failover smoke: takeover coordinator reported no failover" >&2
    exit 1
fi
if grep -qE " resumed=0 " <<<"${fstats}"; then
    echo "failover smoke: takeover resumed from zero replicated tasks" >&2
    exit 1
fi
