# Developer and CI entry points. `make ci` is the gate: build, vet, a
# gofmt check over every tracked Go file, race-clean tests (which include the kernel-vs-reference equivalence
# suite), the same equivalence suite with the word-parallel kernels
# force-disabled (the bit-serial oracle path, including the scalar
# activity simulator), benchmark smoke passes in both modes, focused
# -race passes over the two global caches' concurrent cold builds, the
# multi-patient streaming service, the sharded gateway, the real-socket
# transport (loopback TCP+UDP churn) and the batch-vs-scalar equivalence
# suites, a fuzz smoke over the wire-frame/socket-message parsers, the
# ingest path and the QRS detector, a fixed-seed chaos run of the socket
# transport harness, a benchdiff smoke run over the checked-in snapshot,
# and the end-to-end benchmark module's golden-digest smoke test.

GO ?= go
GOFMT ?= gofmt

# Benchmarks captured by `make bench-json` into BENCH_N.json snapshots.
BENCH_JSON_PATTERN = KernelVsReference|PipelinePush|DSEWorkers|EvaluatorShards|Fig11ExplorationTime|Table2PreprocessingGrid|EnergyCharacterization|Activity|Serve|Gateway|Transport|BatchChain
# Packages the bench-json pattern runs over.
BENCH_JSON_PKGS = . ./internal/arith/kernel ./internal/netlist
# Current snapshot file; bump per PR so the trajectory stays diffable.
BENCH_SNAPSHOT = BENCH_10.json
# Previous snapshot `make bench-diff` gates against.
BENCH_BASELINE = BENCH_9.json
# Benchmarks that must exist in the current snapshot (catches a pattern
# or harness regression silently dropping the new energy benchmarks).
BENCH_REQUIRE = EnergyCharacterization/cold|Table2PreprocessingGrid/scratch|Activity/lanes|Serve/sessions|Serve/latency|Gateway/shards=1|Gateway/shards=4|Transport/inproc|Transport/tcp|Transport/udp|BatchChain/ama5-k16/batch64|BatchChain/ama5-k16/scalar

.PHONY: all build vet fmt-check test race race-arith race-energy race-serve race-gateway race-net race-batch fuzz-smoke net-smoke test-reference bench bench-reference bench-json bench-diff bench-diff-smoke bench-smoke ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails when gofmt would reformat any tracked Go file,
# bench/ included (the check only reads).
fmt-check:
	@files=$$(git ls-files -z '*.go' | xargs -0 -r $(GOFMT) -l); \
	if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused -race pass over the arithmetic packages: the kernel's global
# plan/table cache is hammered by concurrent cold builds (first-insert-wins
# asserted), cheap enough to run on every CI pass in addition to the full
# `race` sweep above.
race-arith:
	$(GO) test -race -count=1 ./internal/arith/...

# Same treatment for the energy characterization cache: concurrent cold
# characterizations of one (stage, config) set must share first-inserted
# entries.
race-energy:
	$(GO) test -race -count=1 ./internal/energy

# The multi-patient streaming service under -race: concurrent Service
# shards (one per goroutine, as deployed) over the shared kernel and
# energy caches, plus the bit-identity/churn/eviction suite.
race-serve:
	$(GO) test -race -count=1 ./internal/serve

# The sharded gateway under -race: per-shard drain workers against the
# merge path, the fault-injected transport loop, and the shard-count
# bit-identity suite.
race-gateway:
	$(GO) test -race -count=1 -run 'Gateway|Transport|Fault|Gap|SplitFrames' ./internal/serve

# The socket transport under -race: loopback TCP+UDP connection churn —
# reconnect chaos, NACK settlement, idle reaping, overload shedding,
# panic isolation and graceful drain — plus the experiments-level
# identity gate and chaos sweep over live sockets.
race-net:
	$(GO) test -race -count=1 -run 'Net|Wire|SeqWrap' ./internal/serve
	$(GO) test -race -count=1 -run 'TransportResilience' ./internal/experiments

# Fixed-seed chaos smoke of the socket harness through the CLI: identity
# gate on both networks plus the loss x policy sweep with disconnects
# and partial writes over a real loopback socket.
net-smoke:
	$(GO) run ./cmd/xbiosip -samples 6000 -seed 3 transport > /dev/null
	$(GO) run ./cmd/xbiosip -samples 6000 -net udp -sessions 4 serve > /dev/null

# The batch-evaluation equivalence suites across every layer that grew a
# batched path — kernel BatchChain, dsp block hooks, PipelineBatch, the
# batched serve drain and the netlist stream simulator — under -race,
# with the per-sample/scalar paths as in-process oracles.
race-batch:
	$(GO) test -race -count=1 -run 'Batch|Streams|Discard' ./internal/arith/kernel ./internal/dsp ./internal/pantompkins ./internal/serve ./internal/netlist

# Fuzz smoke: a few seconds of native fuzzing over the wire-frame
# parser, the socket-message decoder and the ingest path (never panic,
# never corrupt the session pool), and over the QRS detector (every
# entry point reproduces the frozen whole-record oracle).
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseFrame -fuzztime=5s -run '^$$' ./internal/serve
	$(GO) test -fuzz=FuzzParseWire -fuzztime=5s -run '^$$' ./internal/serve
	$(GO) test -fuzz=FuzzIngest -fuzztime=5s -run '^$$' ./internal/serve
	$(GO) test -fuzz=FuzzDetector -fuzztime=5s -run '^$$' ./internal/pantompkins

# The kernel equivalence tests and the packages threaded through the
# compiled kernels, re-run with XBIOSIP_NO_KERNELS so every plan delegates
# to the bit-serial reference models and the activity engine to the scalar
# oracle: keeps both oracle paths green.
test-reference:
	XBIOSIP_NO_KERNELS=1 $(GO) test -count=1 -race ./internal/arith/kernel ./internal/dsp ./internal/pantompkins ./internal/netlist ./internal/energy
	XBIOSIP_NO_KERNELS=1 $(GO) test -count=1 -race -run 'Batch|Discard' ./internal/serve

# One iteration of every benchmark: regenerates each table/figure once and
# exercises the parallel DSE engine and the kernel-vs-reference
# micro-benchmarks without taking benchmark-grade time.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run '^$$' . ./internal/arith/kernel ./internal/netlist

# The kernel-sensitive benchmarks with kernels force-disabled — a smoke
# pass proving the oracle path still drives the full simulation stack.
bench-reference:
	XBIOSIP_NO_KERNELS=1 $(GO) test -bench '(KernelVsReference|PipelinePush|Activity)' -benchmem -benchtime=1x -run '^$$' . ./internal/arith/kernel ./internal/netlist

# Record the performance trajectory: run the DSE/pipeline/kernel/energy
# benchmarks at full benchtime and snapshot name -> ns/op (+allocs) JSON,
# so future PRs can diff against the checked-in snapshots.
bench-json:
	$(GO) test -bench '($(BENCH_JSON_PATTERN))' -benchmem -run '^$$' $(BENCH_JSON_PKGS) > bench.out.tmp
	$(GO) run ./cmd/benchjson < bench.out.tmp > $(BENCH_SNAPSHOT)
	rm -f bench.out.tmp

# Compare the current snapshot against the previous one and fail on >15%
# regression of any tracked benchmark's ns/op, bytes/op or allocs/op, or
# if a required benchmark is missing from the current snapshot.
# Snapshots are only comparable when taken on the same machine — run
# `make bench-json` against both revisions locally before trusting a
# failure.
bench-diff:
	$(GO) run ./cmd/benchdiff -threshold 0.15 -bytes-threshold 0.15 -allocs-threshold 0.15 -require '$(BENCH_REQUIRE)' $(BENCH_BASELINE) $(BENCH_SNAPSHOT)

# The end-to-end benchmark's own module (bench/ has a go.mod of its own,
# so the root `go test ./...` never builds it): vet it and run its smoke
# test, which checks every design and grid of seed 1 against the golden
# digests in bench/testdata/golden-seed1.txt.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# CI smoke: self-compare the checked-in snapshot so the tool's parsing,
# matching, gating and -require checks run on every CI pass without
# cross-machine noise.
bench-diff-smoke:
	$(GO) run ./cmd/benchdiff -threshold 0.15 -bytes-threshold 0.15 -allocs-threshold 0.15 -require '$(BENCH_REQUIRE)' $(BENCH_SNAPSHOT) $(BENCH_SNAPSHOT) > /dev/null

ci: build vet fmt-check race race-arith race-energy race-serve race-gateway race-net race-batch fuzz-smoke net-smoke test-reference bench bench-reference bench-diff-smoke bench-smoke
