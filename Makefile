# Build/verify entry points. `make verify` is the tier-1 gate (ROADMAP.md):
# it runs ./ci.sh, the one gate list, and must pass on every commit. The
# other targets are pieces of it for a faster inner loop.

GO ?= go

.PHONY: all build vet test race bench benchcheck chaos fuzz lint obs service profile verify clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bench/ is a nested module (BENCHMARK.json) that the root ./... skips; its
# tests include a smoke run byte-compared against bench/golden.
test:
	$(GO) test ./...
	cd bench && GOWORK=off $(GO) test ./...

# The runner package is the only concurrency in the tree (stats tables are
# its shared sink), so those two get the race detector on every verify —
# plus the shadow-coherence tests, which hammer the TLB fast path's flush
# discipline from parallel subtests.
race:
	$(GO) test -race ./internal/runner ./internal/stats ./internal/obs ./internal/store ./internal/service
	$(GO) test -race -run 'TestShadowCoherence' ./internal/sim

bench:
	$(GO) test -bench=. -benchmem -benchtime 1x .

# Robustness gate: the fault-injection and invariant-auditor suites under the
# race detector. Chaos wires injected failures into the allocator hot paths
# from the simulation goroutines, so racing them is the whole point.
chaos:
	$(GO) test -race ./internal/chaos ./internal/audit
	$(GO) test -race -run 'TestChaos|TestAuditEvery|TestObs' ./internal/sim

# Fuzz smoke: ten seconds of audit-checked random kernel-op sequences
# (mappings and a page-cache file's insertions, moves and drops) under
# chaos-injected buddy failures, ten of the fragmenter's computed fill
# against its per-page reference, and ten each of the fill's buddy carve
# and of fault-around's run mapping against per-page AllocSpecific and
# MapSpecific, ten of a kernel re-booted through a chain of sizes and
# flavours against newly booted ones (kernel.Boot), and ten each of
# fault-around's run of order-0 frames against repeated Alloc(0) and of
# fault-around population against the per-fault loop, ten of the buddy's
# free lists after random operations and re-boots against the maximal
# aligned blocks of the free frames (buddy.FuzzFreeListsMatchModel), ten
# of teardown by runs against its per-page definition
# (kernel.FuzzUnmapRangeEquivalence),
# ten of compaction by runs, mapped and file-owned, against its per-page
# definition (compact.FuzzCompactRunEquivalence), ten of a Fragmenter re-applied at
# another size or flavour against a new one
# (fragment.FuzzReapplyEquivalence), ten of the reverse map's operations
# at every page size against a map[pfn]Owner model (phys.FuzzReverseMap),
# ten of munmap's in-place VMA edit against the rebuilt list
# (vmm.FuzzMUnmapEquivalence), and ten of the TLB's
# LRU inclusion law (with the set count fixed, more ways never miss more,
# tlb.FuzzLRUInclusion), and ten of whole runs on drawn configs against
# the oracle that switches off every fast path (sim.FuzzRunEquivalence).
# The seed corpora
# alone run on plain `make test`; this exercises the mutator too.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzKernelOpsAudit -fuzztime 10s ./internal/kernel
	$(GO) test -run '^$$' -fuzz FuzzApplyEquivalence -fuzztime 10s ./internal/fragment
	$(GO) test -run '^$$' -fuzz FuzzCarveEquivalence -fuzztime 10s ./internal/buddy
	$(GO) test -run '^$$' -fuzz FuzzMapRunEquivalence -fuzztime 10s ./internal/kernel
	$(GO) test -run '^$$' -fuzz FuzzBootEquivalence -fuzztime 10s ./internal/kernel
	$(GO) test -run '^$$' -fuzz FuzzAllocRunEquivalence -fuzztime 10s ./internal/buddy
	$(GO) test -run '^$$' -fuzz FuzzFreeListsMatchModel -fuzztime 10s ./internal/buddy
	$(GO) test -run '^$$' -fuzz FuzzFaultAroundEquivalence -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzUnmapRangeEquivalence -fuzztime 10s ./internal/kernel
	$(GO) test -run '^$$' -fuzz FuzzCompactRunEquivalence -fuzztime 10s ./internal/compact
	$(GO) test -run '^$$' -fuzz FuzzReapplyEquivalence -fuzztime 10s ./internal/fragment
	$(GO) test -run '^$$' -fuzz FuzzReverseMap -fuzztime 10s ./internal/phys
	$(GO) test -run '^$$' -fuzz FuzzMUnmapEquivalence -fuzztime 10s ./internal/vmm
	$(GO) test -run '^$$' -fuzz FuzzLRUInclusion -fuzztime 10s ./internal/tlb
	$(GO) test -run '^$$' -fuzz FuzzRunEquivalence -fuzztime 10s ./internal/sim

# Bench-rot gate: compile and run every benchmark in the tree exactly once
# (no test functions: -run matches nothing). Catches benchmarks broken by
# API drift without paying for real measurement.
benchcheck:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Determinism & layering lint (tridentlint, DESIGN.md §8), four checks:
# the dependency table (layering: import DAG, no host clock in the
# simulated world, math/rand only in internal/xrand, no logging or
# observability inside memo-key computation) and the interprocedural
# call-graph checks (detertaint: ambient values and map order into
# results or output; errdrop; lockflow). Mutexes copied by value are go
# vet's copylocks check. The second half is the negative gate: the
# seeded-violation fixture must still make the linter exit 1 per check,
# for every name `tridentlint -list` prints, so the checks themselves
# cannot silently rot.
lint:
	$(GO) run ./cmd/tridentlint ./...
	@checks=$$($(GO) run ./cmd/tridentlint -list) || exit 1; \
	for check in $$(echo "$$checks" | awk '{print $$1}'); do \
	  rc=0; $(GO) run ./cmd/tridentlint -checks $$check internal/lint/testdata/bad >/dev/null || rc=$$?; \
	  if [ "$$rc" -ne 1 ]; then \
	    echo "tridentlint negative gate ($$check): exit $$rc on seeded violations, want 1" >&2; \
	    exit 1; \
	  fi; \
	done

# Profiling entry point: one BenchmarkFigure9 iteration with CPU and heap
# profiles into report/profile/ (gitignored), so the next perf PR starts
# from a recorded profile instead of re-deriving one. Inspect with
# `go tool pprof report/profile/fig9.cpu.pb.gz`.
profile:
	@mkdir -p report/profile
	$(GO) test -run '^$$' -bench '^BenchmarkFigure9$$' -benchtime 1x -benchmem \
	  -cpuprofile report/profile/fig9.cpu.pb.gz \
	  -memprofile report/profile/fig9.mem.pb.gz . \
	  | tee report/profile/fig9.bench.txt

# Durable-service tests (DESIGN.md §9), in process and under the race
# detector: drain and resume with a byte-identical report, and the HTTP
# API. The kill -9 crash sequence against a real process runs in ci.sh
# only.
service:
	$(GO) test -race -run 'TestDrainResumeByteIdentical|TestHTTPAPI' ./internal/service

# Observability gate: trace a small experiment and validate the trace
# (parse, monotonic timestamps, balanced spans) plus the time series.
obs:
	obsdir=$$(mktemp -d); \
	trap 'rm -rf "$$obsdir"' EXIT; \
	$(GO) run ./cmd/experiments -quick -only fig9 -trace -out "$$obsdir" >/dev/null && \
	$(GO) run ./cmd/tracecheck "$$obsdir"/trace/figure9.json && \
	test -s "$$obsdir"/trace/figure9-series.csv

verify:
	./ci.sh

clean:
	rm -rf report
	$(GO) clean
