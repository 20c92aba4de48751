GO ?= go

.PHONY: all build vet test race race-short fuzz-short tier1 cross-build bench bench-smoke serve-bench fmt-check loc

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs every test under the race detector. The workload suite alone
# outlasts go test's 10-minute default there on a slow host, hence the
# explicit timeout.
race:
	$(GO) test -race -timeout 45m ./...

# race-short is the same gate for every push: all packages, all tests by
# name (no -run subsets to fall out of date when a test is renamed), with
# the long ones — whole-suite workload runs, the tier-2 half of the
# golden code hashes — trimmed by -short. The workload package still
# takes 8 of the run's 9 minutes on a 2-core host, hence the timeout.
race-short:
	$(GO) test -race -short -timeout 30m ./...

# fuzz-short runs three fuzz targets beyond their seeds for 20 s each.
# FuzzScalarOp: random operand words for every scalar op and type, folded,
# interpreted, and run on both targets at both tiers, must agree.
# FuzzOptimizeMemory: a random function of loads, stores, calls, diamonds
# and loops must print the same on the interpreter before and after O2.
# FuzzDecodeFrom: arbitrary bytes decode to a *DecodeError or to an
# instruction that encodes back to exactly those bytes.
# Plain go test runs only the seeds and the checked-in corpora.
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzScalarOp -fuzztime 20s ./internal/machine
	$(GO) test -run '^$$' -fuzz FuzzOptimizeMemory -fuzztime 20s ./internal/passes
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrom -fuzztime 20s ./internal/target

# tier1 is the CI gate: everything must build, vet clean, and pass the
# full test suite under the race detector.
tier1: vet build race

# cross-build keeps what a Linux-only runner never executes from rotting
# unseen: internal/mem's make fallback (map_other.go; Windows has no
# anonymous mapping through package syscall) and the `unix` build tag of
# map_unix.go on a second unix. Standard library only, nothing is
# downloaded. ./benchmark is left out: its harness reads getrusage and
# statfs and is unix-only by design.
cross-build:
	GOOS=windows GOARCH=amd64 $(GO) build ./cmd/... ./internal/... ./examples/...
	GOOS=darwin GOARCH=amd64 $(GO) vet ./internal/mem

# bench prints the paper's Table 2 in the profile-warm tier-2
# configuration (go run ./cmd/llva-bench for tier 1). Its exact columns
# are TestNativeGolden's; timing claims belong to ./benchmark.
bench:
	$(GO) run ./cmd/llva-bench -tier2

# bench-smoke compiles and runs the Table 2, cache
# (BenchmarkCacheCodec, BenchmarkCASRead), session-start
# (BenchmarkNewSession/-Large, BenchmarkMemNew), guest-memory-access
# (BenchmarkLoadStore), block-engine dispatch (BenchmarkDispatch: one
# hand-assembled loop per dispatch class, host-ns/guest-instr), codec
# (BenchmarkEncodeDecode), optimizer (BenchmarkOptimize, per-pass
# ns/op over the suite) and translator (BenchmarkLower per target and
# tier, BenchmarkAllocLinear; their doc comments give the before/after
# command line) and serve request (BenchmarkServeRun: one light run over
# loopback HTTP) benchmarks once, as a CI-cheap check that the benchmarks
# themselves stay green (in particular the block-engine execution path
# under Table2RunTime), plus
# the observability smoke: a workload under -trace-out and the
# sampling profiler whose emitted trace must be valid Perfetto-loadable
# JSON with a complete span, and a trapping program whose crash report
# must render. The serve smoke drives a short loadgen burst against an
# in-process server: non-zero completions, zero 5xx.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Table2|CacheCodec|CASRead|NewSession|MemNew|LoadStore|Dispatch|EncodeDecode|Optimize|Lower|AllocLinear|ServeRun' -benchtime 1x ./...
	$(GO) test -run TestTraceSmoke .
	$(GO) test -count=1 -run TestLoadGenSmoke ./internal/serve/

# serve-bench runs the full loadgen burst (the PR 9 configuration:
# 10k concurrent sessions, 50k runs, 10M gas) against a freshly started
# llva-serve and prints the report.
serve-bench:
	scripts/serve_bench.sh

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# loc prints non-test and test Go lines per package and in total
# (testdata and generated files excluded): ROADMAP aim 2 reports lines
# removed, and CHANGES.md quotes this before and after.
loc:
	@sh scripts/loc.sh
