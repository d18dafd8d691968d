# Developer and CI entry points. `make ci` is the gate: build, vet, a
# gofmt check over every tracked Go file, race-clean tests (which include
# the equivalence suites: the word-parallel kernels — the AMA5 and exact
# fast strategies, and the generic chain, re-fold window and full tables
# that every other cell kind runs — the dsp stages and whole pipelines
# against folds through the bit-serial arith models, and
# the lane-packed activity simulator against a one-vector-at-a-time fold,
# all in test code), a benchmark smoke pass, focused
# -race passes over the two global caches' concurrent cold builds, the
# design-space explorer's stage energies overlapped with its candidate
# evaluations, the multi-patient streaming service, the sharded gateway,
# the real-socket transport (loopback TCP+UDP churn) and the continuation
# equivalence suites (whole records, blocks and single samples through one
# chain engine, one FIR window and the QRS detector, against per-sample
# and per-tap oracles, the serve drain's event latencies included; the
# AMA5 chains' and the fused exact MAC's blocks straddle the spans at
# which they switch from their short-span loop to passes), a fuzz smoke over
# the wire-frame/socket-message parsers, the ingest path, the QRS
# detector, the FIR and moving-window integrator entry points, the
# kernel's on-demand table fills and its chain strategies, the PSNR/SSIM
# grader's integer pass and its float fallback, the netlist activity
# engine against its one-vector-at-a-time oracle, a fixed-seed
# chaos run of the socket transport harness, fault-free serve runs over
# loopback TCP (the batched writes) and UDP, one run of every example
# program, and the end-to-end
# benchmark module's golden-digest smoke test (which also fails when a
# declared metric goes missing).

GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet fmt-check test race race-arith race-energy race-dse race-serve race-gateway race-net race-batch fuzz-smoke net-smoke examples-smoke bench bench-smoke ci

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
# asserted) whose goroutines then race to fill the shared tables, cheap
# enough to run on every CI pass in addition to the full `race` sweep
# above.
race-arith:
	$(GO) test -race -count=1 ./internal/arith/...

# Same treatment for the energy characterization cache: concurrent cold
# characterizations of one (stage, config) set must share first-inserted
# entries.
race-energy:
	$(GO) test -race -count=1 ./internal/energy

# The design-space explorer under -race, ten times over: stage-energy
# characterizations on the engine's worker slots overlapped with the
# candidate scans (the worker bound, one request per key, errors and
# goroutines on every return path), speculative scans and the one-slot
# explorer that evaluates only the candidates it traces.
race-dse:
	$(GO) test -race -count=10 -run 'Overlap|EnergyErrors|Parallel|Speculative|OneWorker' ./internal/dse

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
# and partial writes over a real loopback socket, then the serve
# scenario fault-free over TCP (one batched write per round) and UDP (one
# datagram per message), each through its own bit-identity gate.
net-smoke:
	$(GO) run ./cmd/xbiosip -samples 6000 -seed 3 transport > /dev/null
	$(GO) run ./cmd/xbiosip -samples 6000 -net tcp -sessions 4 serve > /dev/null
	$(GO) run ./cmd/xbiosip -samples 6000 -net udp -sessions 4 serve > /dev/null

# Every example program, run once; a non-zero exit fails the target.
# streaming_monitor exits non-zero when a streamed output diverges from
# the batch pipeline, so its bit-identity check is gated here too.
examples-smoke:
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# The continuation equivalence suites across every layer that runs a
# signal in blocks — kernel Chain.Run from a start index past the deepest
# tap lag (blocks of 3 to 7 positions after the least such history, one
# sample past the deepest lag, straddle the spans at
# which the AMA5 chains, from 4, and the fused exact MAC, from 6 over its
# direct taps and from 5 over the LPF's recurrence, leave their
# short-span loop for passes), the dsp FIR and integrator entry points
# against the frozen per-tap and per-sample fold oracles (the FIR's window
# filled exactly, grown, and continued by an empty block, and whole
# records whose first tap-count positions run as one block; the FIR fuzz
# target's seeds too) and the squarer block path,
# Pipeline.PushBlock and streams sharing one compiled pipeline across
# goroutines (racing the first fills of its tables),
# StreamDetector.PushBlock's edge cases, the serve block drain (its
# events and their exact latencies) — plus the netlist stream simulator
# against per-vector Run, under -race.
race-batch:
	$(GO) test -race -count=1 -run 'Continuation|MatchesOracle|Block|Share|Batched|Streams|Discard' ./internal/arith/kernel ./internal/dsp ./internal/pantompkins ./internal/serve ./internal/netlist

# Fuzz smoke: a few seconds of native fuzzing over the wire-frame
# parser, the socket-message decoder and the ingest path (never panic,
# never corrupt the session pool), over the QRS detector (every entry
# point reproduces the frozen whole-record oracle), over the FIR (every
# entry point, its window filled exactly, grown and continued, reproduces
# the frozen per-tap fold; seeds replay design B9's LPF, HPF and DER in
# 24-sample serve blocks), over the moving-window integrator (every
# entry point reproduces the frozen per-sample fold), over the kernel's
# on-demand table fills (every read of a fresh table reproduces the full
# enumeration, for a fuzzed coefficient, |c| >= 256 and -2^15 included,
# and a fuzzed root adder: AMA5 and exact fill through the rows' closed
# form, AMA4 and AMA2 through the adders) and over its chain strategies
# (fuzzed tap shapes through the fused exact chain and the AMA5 chains,
# short spans sample-major and longer ones in passes, reproduce the
# scalar fold from any start index after a cleared delay line; seeds replay
# design B9's LPF, HPF and DER as one 24-sample serve block, and the
# accurate ones, which run the fused MAC's passes, as one such block and
# as a whole record), over the PSNR/SSIM grader (SignalRef.Quality
# reproduces PSNR and SSIM of float copies bit for bit, through its
# integer pass inside its sample, window and error bounds and through the
# float loops outside them), and over the netlist activity engine (fuzzed
# port widths, past 64 bits too, 2 to 200 vectors of full 64-bit values
# and cell mixes reproduce the one-vector-at-a-time toggle fold). Each
# line bounds the minimization of each input it finds to 100 calls: with
# the default of 60 s a line spends its 5 s minimizing the first new input
# instead of fuzzing.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseFrame -fuzztime=5s -fuzzminimizetime=100x -run '^$$' ./internal/serve
	$(GO) test -fuzz=FuzzParseWire -fuzztime=5s -fuzzminimizetime=100x -run '^$$' ./internal/serve
	$(GO) test -fuzz=FuzzIngest -fuzztime=5s -fuzzminimizetime=100x -run '^$$' ./internal/serve
	$(GO) test -fuzz=FuzzDetector -fuzztime=5s -fuzzminimizetime=100x -run '^$$' ./internal/pantompkins
	$(GO) test -fuzz=FuzzFIRMatchesOracle -fuzztime=5s -fuzzminimizetime=100x -run '^$$' ./internal/dsp
	$(GO) test -fuzz=FuzzMovingSum -fuzztime=5s -fuzzminimizetime=100x -run '^$$' ./internal/dsp
	$(GO) test -fuzz=FuzzTableFill -fuzztime=5s -fuzzminimizetime=100x -run '^$$' ./internal/arith/kernel
	$(GO) test -fuzz=FuzzChainRun -fuzztime=5s -fuzzminimizetime=100x -run '^$$' ./internal/arith/kernel
	$(GO) test -fuzz=FuzzQuality -fuzztime=5s -fuzzminimizetime=100x -run '^$$' ./internal/metrics
	$(GO) test -fuzz=FuzzActivity -fuzztime=5s -fuzzminimizetime=100x -run '^$$' ./internal/netlist

# One iteration of every benchmark: regenerates each table/figure once and
# exercises the parallel DSE engine, the kernel-vs-reference
# micro-benchmarks, the cold table fills (BenchmarkTableFill: one fresh
# projection or const-mul table filled whole, ns per magnitude, and the
# sub-product tables, for the explorer's spec at k 4 to 16), the FIR
# chains (BenchmarkFIR: whole records and
# 24-sample blocks, which run the passes of the AMA5 chains and, at k=0,
# of the fused exact MAC, and per-sample Process, which runs their
# short-span loops, at B9's k per stage, DER k=2 included), the squarer's
# exact and table paths (BenchmarkSquarer), the integrator's window
# strategies, the QRS detector's whole-record, per-sample and block
# entry points and the Table 2 grid's 81 outputs (BenchmarkDetector/grid),
# the PSNR/SSIM grader over those outputs, integer pass and float
# loops (BenchmarkQuality), and the energy characterization: the activity
# engine (BenchmarkActivity), each stage's folded netlist build with
# dead-cell elimination (BenchmarkStageNetlist) and one cold
# characterization per stage (BenchmarkCharacterize), without taking
# benchmark-grade time.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run '^$$' . ./internal/arith/kernel ./internal/dsp ./internal/energy ./internal/metrics ./internal/netlist ./internal/pantompkins

# The end-to-end benchmark's own module (bench/ has a go.mod of its own,
# so the root `go test ./...` never builds it): vet it and run its smoke
# test, which checks every design and grid of seed 1 against the golden
# digests in bench/testdata/golden-seed1.txt.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

ci: build vet fmt-check race race-arith race-energy race-dse race-serve race-gateway race-net race-batch fuzz-smoke net-smoke examples-smoke bench bench-smoke
