#!/bin/sh
# Tier-1 verification (ROADMAP.md): build, vet, a gofmt gate, full tests, the race
# detector on the concurrent packages, the shadow-coherence tests and the
# chaos/audit robustness suites, 10s fuzz smokes of the audit-checked
# kernel-op fuzzer (mappings and a page-cache file's insertions, moves and
# drops), of the fragmenter's computed-vs-per-page equivalence, of the
# buddy carve it commits with and of the run mapping fault-around commits
# with against their per-page definitions, of a kernel re-booted through
# a chain of sizes and flavours against newly booted ones (kernel.Boot,
# the machine pool's contract), and of population by fault-around against
# its per-fault definitions (the buddy's run of order-0 frames against
# repeated Alloc(0), fault-around touch against the per-fault loop), of
# the buddy's free lists after random operations and re-boots against the
# maximal aligned blocks of the free frames (FuzzFreeListsMatchModel), of
# teardown by runs against its per-page definition (UnmapRange and
# UnmapRangeKeep against UnmapFree and the test-only UnmapKeep), of
# compaction by runs
# against its per-page definition (sequential compaction moving a run of
# mapped or file pages per kernel call against one page at a time), of a Fragmenter
# re-applied at another size or flavour against a new one, of the reverse
# map against a map[pfn]Owner model (FuzzReverseMap), of munmap's in-place
# VMA edit against the rebuilt list (FuzzMUnmapEquivalence), of the TLB's LRU
# inclusion law (more ways never miss more), of whole runs
# on drawn configs against the oracle that switches off every fast path
# (FuzzRunEquivalence: translation one reference at a time, population
# one fault at a time), a
# one-iteration sweep of every benchmark (bench-rot
# gate), the benchmark harness's own tests (bench/ is a nested module the
# root `go test ./...` skips; its smoke test byte-compares two workloads'
# outputs against bench/golden) plus short fragmented-memory and
# virtualized benchmark runs checked against bench/golden, the tridentlint determinism & layering
# suite (self-clean gate plus a negative gate on seeded violations,
# DESIGN.md §8), a traced experiment validated by tracecheck
# (observability gate, DESIGN.md §7) and then resumed from its result
# store without executing anything (batch resume gate, DESIGN.md §6), and
# the durable-service crash gate
# (DESIGN.md §9): kill -9 a running sweep service mid-sweep, restart with
# -resume, and require the finished report byte-identical to an
# uninterrupted run's. The crash gate doubles
# as the observability gate (DESIGN.md §10): tridenttop -once must scrape
# the service mid-sweep, and the replayed event stream (sweepctl tail
# -csv) must reproduce the resumed report byte-for-byte.
# `make verify` runs this script.
set -eux

go build ./...
go vet ./...

# Formatting gate: every Go file outside the lint fixtures (testdata/,
# seeded violations kept as written) and the benchmark's build area is
# gofmt-clean.
unformatted=$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' -print0 | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
  echo "gofmt needed: $unformatted" >&2
  exit 1
fi

# Determinism & layering lint (tridentlint, DESIGN.md §8), four checks:
# the dependency table — import DAG, no host clock in the simulated world,
# math/rand only in internal/xrand, no logging or observability inside
# memo-key computation (layering) — and the interprocedural call-graph
# checks — ambient-source and map-order taint into
# results/reports/journals/memo keys and map-order output (detertaint),
# discarded durability errors (errdrop), blocking work and double-locks
# under a held mutex (lockflow). Mutexes copied by value are go vet's
# copylocks check above. Self-clean gate:
go run ./cmd/tridentlint ./...

# Archive the machine-readable self-scan so a regression investigation can
# diff findings across PRs. report/ is gitignored; the archive is
# best-effort local evidence, not a gate.
mkdir -p report
go run ./cmd/tridentlint -json ./... >report/tridentlint.json

# Negative gate: every registered check (the first column of
# tridentlint -list) must fire on its own seeded violations in the fixture
# module when run alone, exiting 1 (findings) — not 0 (a check that stopped
# matching its fixture) and not 2 (driver broke). Keeps the linter itself
# from silently rotting. TestCheckRegistry pins the registry itself.
checks=$(go run ./cmd/tridentlint -list)
for check in $(echo "$checks" | awk '{print $1}'); do
  rc=0
  go run ./cmd/tridentlint -checks "$check" internal/lint/testdata/bad >/dev/null || rc=$?
  test "$rc" -eq 1
done

go test ./...
go test -race ./internal/runner ./internal/stats ./internal/obs ./internal/store ./internal/service
go test -race -run 'TestShadowCoherence' ./internal/sim
go test -race ./internal/chaos ./internal/audit
go test -race -run 'TestChaos|TestAuditEvery|TestObs' ./internal/sim
go test -run '^$' -fuzz FuzzKernelOpsAudit -fuzztime 10s ./internal/kernel
go test -run '^$' -fuzz FuzzApplyEquivalence -fuzztime 10s ./internal/fragment
go test -run '^$' -fuzz FuzzCarveEquivalence -fuzztime 10s ./internal/buddy
go test -run '^$' -fuzz FuzzMapRunEquivalence -fuzztime 10s ./internal/kernel
go test -run '^$' -fuzz FuzzBootEquivalence -fuzztime 10s ./internal/kernel
go test -run '^$' -fuzz FuzzAllocRunEquivalence -fuzztime 10s ./internal/buddy
go test -run '^$' -fuzz FuzzFreeListsMatchModel -fuzztime 10s ./internal/buddy
go test -run '^$' -fuzz FuzzFaultAroundEquivalence -fuzztime 10s ./internal/workload
go test -run '^$' -fuzz FuzzUnmapRangeEquivalence -fuzztime 10s ./internal/kernel
go test -run '^$' -fuzz FuzzCompactRunEquivalence -fuzztime 10s ./internal/compact
go test -run '^$' -fuzz FuzzReapplyEquivalence -fuzztime 10s ./internal/fragment
go test -run '^$' -fuzz FuzzReverseMap -fuzztime 10s ./internal/phys
go test -run '^$' -fuzz FuzzMUnmapEquivalence -fuzztime 10s ./internal/vmm
go test -run '^$' -fuzz FuzzLRUInclusion -fuzztime 10s ./internal/tlb
go test -run '^$' -fuzz FuzzRunEquivalence -fuzztime 10s ./internal/sim
go test -run '^$' -bench=. -benchtime=1x ./...

# Benchmark-harness gate: bench/ is its own module (BENCHMARK.json), so the
# root `go test ./...` never reaches it. TestSmoke runs fig9-native and
# sweep-service once and checks their outputs byte-for-byte against
# bench/golden/*-seed1.sha256. Performance evidence itself comes from
# `bash bench/run.sh --workload W --seed N`, not from this gate.
(cd bench && GOWORK=off go test ./...)

# TestSmoke skips fig10-frag, the workload that runs the fragmenter, and
# fig12-virt, the only virtualized one (nested translation): one short run
# of each must still match bench/golden (run.sh exits 1 if not).
obsdir=$(mktemp -d)
svcdir=$(mktemp -d)
benchdir=$(mktemp -d)
trap 'rm -rf "$obsdir" "$svcdir" "$benchdir"; kill -9 $svcpid 2>/dev/null || true' EXIT
svcpid=""
bash bench/run.sh --workload fig10-frag --seed 1 --seconds 1 --trace 0 -out "$benchdir" >/dev/null
bash bench/run.sh --workload fig12-virt --seed 1 --seconds 1 --trace 0 -out "$benchdir" >/dev/null

# Observability gate: a small traced experiment must produce a valid
# Perfetto trace (parse, monotonic per-track timestamps, balanced spans)
# and a non-empty per-batch time series.
go run ./cmd/experiments -quick -only fig9 -trace -out "$obsdir" >/dev/null
go run ./cmd/tracecheck "$obsdir"/trace/figure9.json
test -s "$obsdir"/trace/figure9-series.csv

# Batch resume gate (DESIGN.md §6): re-running the same experiment with
# -resume into the same directory must execute nothing, reload all 24
# simulations from the <out>/checkpoint result store, and rewrite a
# byte-identical CSV.
cp "$obsdir"/figure9.csv "$obsdir"/figure9.first.csv
go run ./cmd/experiments -quick -only fig9 -resume -out "$obsdir" >/dev/null
cmp "$obsdir"/figure9.first.csv "$obsdir"/figure9.csv
grep -q '^  "unique_simulations": 0,$' "$obsdir"/perf.json
grep -q '^  "store_hits": 24,$' "$obsdir"/perf.json

# Durable-service gate (DESIGN.md §9): the sweep service must survive
# kill -9 mid-sweep. Sequence: serve → submit → wait for one durably
# journaled simulation → kill -9 → restart with -resume → the finished
# report must be byte-identical to an uninterrupted run (which uses a
# different worker count, so the diff also re-proves worker independence).
go build -o "$svcdir/experiments" ./cmd/experiments
go build -o "$svcdir/sweepctl" ./cmd/sweepctl
go build -o "$svcdir/tridenttop" ./cmd/tridenttop
wait_addr() {
  for _ in $(seq 1 200); do test -s "$1" && return 0; sleep 0.05; done
  echo "sweep service did not bind" >&2
  return 1
}
SWEEP_ARGS="-workloads GUPS -policies 4k,thp,trident -seed 3"

# Reference: uninterrupted run, default parallelism; SIGTERM must drain
# and exit 0.
"$svcdir/experiments" -serve -http 127.0.0.1:0 -store "fs:$svcdir/store-ref" -out "$svcdir/ref" >/dev/null 2>&1 &
svcpid=$!
wait_addr "$svcdir/ref/addr"
id=$("$svcdir/sweepctl" -addrfile "$svcdir/ref/addr" submit $SWEEP_ARGS 2>/dev/null)
"$svcdir/sweepctl" -addrfile "$svcdir/ref/addr" wait "$id" >/dev/null 2>&1
"$svcdir/sweepctl" -addrfile "$svcdir/ref/addr" report "$id" >"$svcdir/ref.csv"
kill -TERM $svcpid
wait $svcpid

# Crash run: single worker (wider kill window), killed -9 after the first
# simulation is durable.
"$svcdir/experiments" -serve -parallel 1 -http 127.0.0.1:0 -store "fs:$svcdir/store" -out "$svcdir/svc" >/dev/null 2>&1 &
svcpid=$!
wait_addr "$svcdir/svc/addr"
id2=$("$svcdir/sweepctl" -addrfile "$svcdir/svc/addr" submit $SWEEP_ARGS 2>/dev/null)
test "$id2" = "$id" # content-addressed: same sweep, same id, any process
"$svcdir/sweepctl" -addrfile "$svcdir/svc/addr" wait -completed 1 "$id" >/dev/null 2>&1
# Observability probe mid-sweep: the dashboard's one-shot snapshot must
# reach /metrics and show the running sweep, and the service must be
# scrapeable while jobs are in flight.
"$svcdir/tridenttop" -once -addrfile "$svcdir/svc/addr" >"$svcdir/top.txt"
grep -q "$id" "$svcdir/top.txt"
grep -q "SERVICE" "$svcdir/top.txt"
kill -9 $svcpid
wait $svcpid || true
rm -f "$svcdir/svc/addr" # stale: the restart writes a fresh one

# Restart with -resume: the journaled request is re-enqueued and finished.
"$svcdir/experiments" -serve -resume -parallel 1 -http 127.0.0.1:0 -store "fs:$svcdir/store" -out "$svcdir/svc" >/dev/null 2>&1 &
svcpid=$!
wait_addr "$svcdir/svc/addr"
"$svcdir/sweepctl" -addrfile "$svcdir/svc/addr" -timeout 5m wait "$id" >/dev/null 2>&1
"$svcdir/sweepctl" -addrfile "$svcdir/svc/addr" report "$id" >"$svcdir/resumed.csv"
# Event-stream replay gate (DESIGN.md §10): reassembling the finished
# sweep's event journal (header + row events) must reproduce the report
# byte-for-byte, crash and resume notwithstanding.
"$svcdir/sweepctl" -addrfile "$svcdir/svc/addr" tail -csv "$id" >"$svcdir/streamed.csv"
cmp "$svcdir/streamed.csv" "$svcdir/resumed.csv"
kill -TERM $svcpid
wait $svcpid
svcpid=""
cmp "$svcdir/ref.csv" "$svcdir/resumed.csv"
