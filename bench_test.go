// Package xbiosip_test is the benchmark harness that regenerates every
// table and figure of the paper's evaluation (run with
// go test -bench=. -benchmem). Each benchmark executes the corresponding
// experiment from internal/experiments and logs the regenerated artefact.
//
// Benchmarks default to a reduced record set (one 6,000-sample synthetic
// NSRDB-like record) so the whole suite completes in minutes; cmd/xbiosip
// regenerates the same artefacts at the paper's full 20,000-sample scale.
package xbiosip_test

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"testing"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/dse"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/energy"
	"github.com/xbiosip/xbiosip/internal/experiments"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/serve"
)

var (
	setupOnce sync.Once
	setup     *experiments.Setup
	setupErr  error
)

// benchSetup shares one evaluation environment across benchmarks (building
// reference outputs and the energy stimulus is itself nontrivial work).
func benchSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	setupOnce.Do(func() {
		setup, setupErr = experiments.NewSetup(1, 6000)
	})
	if setupErr != nil {
		b.Fatal(setupErr)
	}
	return setup
}

// BenchmarkTable1ElementaryLibrary regenerates Table 1 (synthesis results
// of the elementary approximate adder and multiplier library).
func BenchmarkTable1ElementaryLibrary(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table1()
	}
	b.Log("\n" + out)
}

// BenchmarkFig1SensorNodeEnergy regenerates Fig 1 (sensing vs total energy
// of five bio-signal monitoring sensor nodes).
func BenchmarkFig1SensorNodeEnergy(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Fig1()
	}
	b.Log("\n" + out)
}

// BenchmarkFig2LPFResilience regenerates Fig 2 (error resilience of the
// low-pass filter stage: area/power/delay/energy reductions, SSIM and peak
// detection accuracy over approximated LSBs).
func BenchmarkFig2LPFResilience(b *testing.B) {
	s := benchSetup(b)
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := s.StageResilience(pantompkins.LPF)
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.FormatResilience(pantompkins.LPF, rows)
	}
	b.Log("\n" + out)
}

// BenchmarkFig8StageResilience regenerates Fig 8(a)-(d): the error
// resilience sweeps of the HPF, differentiator, squarer and MWI stages.
func BenchmarkFig8StageResilience(b *testing.B) {
	s := benchSetup(b)
	stages := []pantompkins.Stage{pantompkins.HPF, pantompkins.DER, pantompkins.SQR, pantompkins.MWI}
	for _, st := range stages {
		b.Run(st.String(), func(b *testing.B) {
			var out string
			for i := 0; i < b.N; i++ {
				rows, err := s.StageResilience(st)
				if err != nil {
					b.Fatal(err)
				}
				out = experiments.FormatResilience(st, rows)
			}
			b.Log("\n" + out)
		})
	}
}

// BenchmarkFig10OutputQuality regenerates Fig 10 (accurate vs approximate
// output quality with 4 LSBs approximated at all five stages).
func BenchmarkFig10OutputQuality(b *testing.B) {
	s := benchSetup(b)
	var out string
	for i := 0; i < b.N; i++ {
		r, err := s.UniformApproximation(4)
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.FormatUniform(r)
	}
	b.Log("\n" + out)
}

// BenchmarkTable2PreprocessingGrid regenerates Table 2 (PSNR and energy of
// the LPF x HPF design grid, exhaustive 81 points plus the Algorithm 1
// trace). Three cache regimes:
//
//   - warm shares one evaluation environment across iterations, so after
//     the first pass every design is a cache hit and the number measures
//     the engine's memoized steady state;
//   - cold rebuilds the evaluator AND empties the kernel's global
//     plan/table cache per iteration, so every table build and every
//     simulation is paid inside the timed region. The process-wide energy
//     characterization cache intentionally survives — a characterization
//     is a pure function of (stage, config, stimulus), and sharing it
//     across evaluators is exactly the amortization the cache exists for;
//   - scratch additionally empties the characterization cache, the honest
//     everything-from-zero cost (every stage netlist re-synthesized and
//     re-simulated through the lane-packed activity engine).
func BenchmarkTable2PreprocessingGrid(b *testing.B) {
	run := func(b *testing.B, s *experiments.Setup) {
		r, err := s.Table2(15)
		if err != nil {
			b.Fatal(err)
		}
		_ = s.FormatTable2(r)
	}
	b.Run("warm", func(b *testing.B) {
		s := benchSetup(b)
		for i := 0; i < b.N; i++ {
			run(b, s)
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, err := experiments.NewSetup(1, 6000)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			kernel.DropCaches()
			run(b, s)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, err := experiments.NewSetup(1, 6000)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			kernel.DropCaches()
			energy.DropCaches()
			run(b, s)
		}
	})
}

// BenchmarkEnergyCharacterization measures the cold energy model on its
// own: characterizing every stage at a representative approximation depth
// from an empty characterization cache (synthesize, lane-packed activity
// simulation, activity-weighted report), plus the all-hits warm lookup.
func BenchmarkEnergyCharacterization(b *testing.B) {
	rec, err := ecg.NSRDBRecord(0, 6000)
	if err != nil {
		b.Fatal(err)
	}
	stim, err := energy.NewStimulus(rec)
	if err != nil {
		b.Fatal(err)
	}
	em := energy.NewModel(stim)
	var b9 pantompkins.Config
	for i, s := range pantompkins.Stages {
		b9.Stage[s] = dsp.ArithConfig{
			LSBs: []int{10, 12, 2, 8, 16}[i],
			Add:  approx.ApproxAdd5,
			Mul:  approx.AppMultV1,
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			energy.DropCaches()
			if _, err := em.PipelineReduction(b9); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := em.PipelineReduction(b9); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := em.PipelineReduction(b9); err != nil {
				b.Fatal(err)
			}
		}
	})
	energy.DropCaches()
}

// BenchmarkFig11ExplorationTime regenerates Fig 11 (exploration time of
// exhaustive / heuristic / Algorithm 1 over 1..5 stages).
func BenchmarkFig11ExplorationTime(b *testing.B) {
	s := benchSetup(b)
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := s.ExplorationTime()
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.FormatFig11(rows)
	}
	b.Log("\n" + out)
}

// BenchmarkFig12EnergyQuality regenerates Fig 12 (peak detection accuracy
// and energy reduction of configurations A1, A2 and B1-B14).
func BenchmarkFig12EnergyQuality(b *testing.B) {
	s := benchSetup(b)
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		var err2 error
		out, err2 = s.FormatFig12(rows)
		if err2 != nil {
			b.Fatal(err2)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkFig13Misclassification regenerates Fig 13 (heartbeat
// misclassification analysis of design B10).
func BenchmarkFig13Misclassification(b *testing.B) {
	s := benchSetup(b)
	b10 := experiments.Fig12Configs[10] // B10
	if b10.Name != "B10" {
		b.Fatalf("config table changed: %s", b10.Name)
	}
	var out string
	for i := 0; i < b.N; i++ {
		r, err := s.Misclassification(b10)
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.FormatMisclassification(r)
	}
	b.Log("\n" + out)
}

// BenchmarkPipelinePush measures the streaming per-sample hot path (one
// raw ADC sample through all five stages) for the accurate pipeline and an
// approximate design, with allocation accounting: the near-sensor contract
// is zero allocations per sample.
func BenchmarkPipelinePush(b *testing.B) {
	rec, err := ecg.NSRDBRecord(0, 6000)
	if err != nil {
		b.Fatal(err)
	}
	cfgs := map[string]pantompkins.Config{"accurate": pantompkins.AccurateConfig(), "b9": b9Config()}
	for name, cfg := range cfgs {
		b.Run(name, func(b *testing.B) {
			p, err := pantompkins.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			n := len(rec.Samples)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Push(rec.Samples[i%n])
			}
		})
	}
}

// b9Config is the paper's headline design B9: LSBs {10, 12, 2, 8, 16}
// on ApproxAdd5 and AppMultV1.
func b9Config() pantompkins.Config {
	var b9 pantompkins.Config
	for i, s := range pantompkins.Stages {
		b9.Stage[s] = dsp.ArithConfig{
			LSBs: []int{10, 12, 2, 8, 16}[i],
			Add:  approx.ApproxAdd5,
			Mul:  approx.AppMultV1,
		}
	}
	return b9
}

// BenchmarkColdDesign measures what a design costs the explorer the first
// time it meets the design (the per-design cost of the paper's Fig 11):
// each op drops the kernel caches, builds the pipeline with pantompkins.New
// and runs it once over a 20,000-sample NSRDB-like record with RunInto.
// The designs are the accurate one (table-free), B9, and the
// pre-processing unit with 16 approximated LSBs on LPF and HPF (ApproxAdd5,
// AppMultV1), the largest tables the explorer builds.
func BenchmarkColdDesign(b *testing.B) {
	rec, err := ecg.NSRDBRecord(0, 20000)
	if err != nil {
		b.Fatal(err)
	}
	pre := pantompkins.AccurateConfig()
	for _, s := range []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF} {
		pre.Stage[s] = dsp.ArithConfig{LSBs: 16, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	}
	defer kernel.DropCaches()
	for _, d := range []struct {
		name string
		cfg  pantompkins.Config
	}{{"accurate", pantompkins.AccurateConfig()}, {"b9", b9Config()}, {"pre-k16", pre}} {
		b.Run(d.name, func(b *testing.B) {
			var out pantompkins.Outputs
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kernel.DropCaches()
				p, err := pantompkins.New(d.cfg)
				if err != nil {
					b.Fatal(err)
				}
				p.RunInto(&out, rec.Samples)
			}
		})
	}
}

// BenchmarkDSEWorkers measures the wall-clock scaling of the parallel
// evaluation engine on the pre-processing exploration (the 81-point
// exhaustive grid plus Algorithm 1 over the same space, as in Table 2).
// Every iteration gets a FRESH evaluator so the memoizing cache cannot
// hide the simulation cost; compare the workers=1 and workers=N
// sub-benchmarks for the speedup. The process-wide energy cache stays
// warm after the first iteration, so later iterations characterize
// nothing; BenchmarkMethodologyCold measures the cold explorer.
func BenchmarkDSEWorkers(b *testing.B) {
	rec, err := ecg.NSRDBRecord(0, 6000)
	if err != nil {
		b.Fatal(err)
	}
	stim, err := energy.NewStimulus(rec)
	if err != nil {
		b.Fatal(err)
	}
	em := energy.NewModel(stim)
	// On a single-core host the pool still runs (overlap is just
	// time-sliced); the wall-clock speedup shows from 2 cores up.
	parallel := runtime.GOMAXPROCS(0)
	if parallel < 2 {
		parallel = 4
	}
	for _, workers := range []int{1, parallel} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eval, err := core.NewEvaluator([]*ecg.Record{rec})
				if err != nil {
					b.Fatal(err)
				}
				evalPSNR := func(cfg pantompkins.Config) (float64, error) {
					q, err := eval.Evaluate(cfg)
					if err != nil {
						return 0, err
					}
					return q.PSNR, nil
				}
				opt := dse.Options{
					Base:       pantompkins.AccurateConfig(),
					Stages:     []pantompkins.Stage{pantompkins.LPF, pantompkins.HPF},
					LSBs:       core.DefaultLSBLists(),
					Mults:      []approx.MultKind{approx.AppMultV1},
					Adds:       []approx.AdderKind{approx.ApproxAdd5},
					Constraint: 15,
					Workers:    workers,
				}
				b.StartTimer()
				if _, err := dse.ExhaustiveGrid(opt, pantompkins.LPF, pantompkins.HPF, evalPSNR, em.StageEnergy); err != nil {
					b.Fatal(err)
				}
				if _, err := dse.Generate(opt, evalPSNR, em.StageEnergy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMethodologyCold measures the two-gate methodology (the paper's
// Fig 11 cost) as a fresh `xbiosip dse` pays it: each op drops the kernel
// and energy caches, builds a fresh evaluator over 2 NSRDB-like records x
// 20,000 samples (record sub-jobs inline, Workers 1) and runs
// core.Methodology with the sub-benchmark's explorer workers. The
// explorer characterizes stage energies on its engine's slots: at
// workers=1 they take turns with candidate evaluations, at workers=2 they
// overlap them. The records and the energy stimulus are built once,
// outside the timer.
func BenchmarkMethodologyCold(b *testing.B) {
	var recs []*ecg.Record
	for i := 0; i < 2; i++ {
		rec, err := ecg.NSRDBRecord(i, 20000)
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, rec)
	}
	stim, err := energy.NewStimulus(recs[0])
	if err != nil {
		b.Fatal(err)
	}
	em := energy.NewModel(stim)
	defer kernel.DropCaches()
	defer energy.DropCaches()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel.DropCaches()
				energy.DropCaches()
				eval, err := core.NewEvaluatorOpts(recs, core.EvalOptions{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				m := core.NewMethodology(eval, em)
				m.Workers = workers
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEnergyAccounting compares the three energy-accounting
// policies (raw module composition, const-prop P*D, activity-weighted) per
// stage — the modelling ablation DESIGN.md §6 calls out.
func BenchmarkAblationEnergyAccounting(b *testing.B) {
	s := benchSetup(b)
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := s.EnergyAccountingAblation()
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.FormatAblation(rows)
	}
	b.Log("\n" + out)
}

// BenchmarkNoiseRobustness sweeps EMG noise and compares accurate vs B9
// detection accuracy (extension experiment; the approximation must not
// erode the algorithm's noise margin).
func BenchmarkNoiseRobustness(b *testing.B) {
	s := benchSetup(b)
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := s.NoiseRobustness([]float64{0.02, 0.05, 0.10, 0.20}, 6000)
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.FormatNoiseRobustness(rows)
	}
	b.Log("\n" + out)
}

// liveHeap returns the live heap bytes a full collection marks.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// BenchmarkServe measures the multi-patient streaming service at the
// wearable-monitor rate (360 Hz, B9 design): the sustained sessions/core
// one single-goroutine Service shard multiplexes, the p99
// sample-to-event latency of live QRS events, and live-KiB/session, what
// the warm Service adds to the live heap per session. One benchmark
// iteration is one radio round — every session ingests one BLE-sized
// frame and the service drains fully — so detection never falls more
// than one frame behind acquisition.
func BenchmarkServe(b *testing.B) {
	gen := ecg.DefaultConfig()
	gen.FS = 360
	gen.Seed = 11
	rec, err := gen.Generate("serve-360", 8*360)
	if err != nil {
		b.Fatal(err)
	}
	var b9 pantompkins.Config
	for i, st := range pantompkins.Stages {
		k := []int{10, 12, 2, 8, 16}[i]
		b9.Stage[st] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	}

	const frameN = 24
	run := func(b *testing.B, sessions int, track bool) []int64 {
		pos := make([]int, sessions)
		seqs := make([]uint16, sessions)
		var buf []byte
		events := make([]serve.Event, 0, 4*sessions)
		var lats []int64
		// The design's kernel tables stay in the process-wide cache, so
		// they are built before the baseline the sessions are measured
		// against.
		if _, err := pantompkins.New(b9); err != nil {
			b.Fatal(err)
		}
		base := liveHeap()
		svc, err := serve.New(serve.Config{
			FS:            360,
			Pipeline:      b9,
			MaxSessions:   sessions,
			BufferSamples: 4 * frameN,
			TrackLatency:  track,
		})
		if err != nil {
			b.Fatal(err)
		}
		round := func(collect bool) {
			for sess := 0; sess < sessions; sess++ {
				p := pos[sess]
				if p+frameN > len(rec.Samples) {
					p = 0
				}
				buf = serve.AppendFrame(buf[:0], uint32(sess+1), seqs[sess], 0, rec.Samples[p:p+frameN])
				if _, err := svc.Ingest(buf); err != nil {
					b.Fatal(err)
				}
				seqs[sess]++
				pos[sess] = p + frameN
			}
			events = svc.Drain(events[:0])
			if collect {
				for _, ev := range events {
					if ev.Kind == serve.EventBeat {
						lats = append(lats, ev.LatencyNs)
					}
				}
			}
		}
		// Warm a full record cycle off the clock: connect every session,
		// give it its pipeline stream, wrap the ingest ring and reach the
		// drain's steady state (block outputs sized, detector trim
		// active), so the timed rounds measure sustained throughput rather
		// than a cold start whose amortized cost depends on b.N.
		for r := 0; r < len(rec.Samples)/frameN; r++ {
			round(false)
		}
		live := liveHeap()
		lats = lats[:0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round(track)
		}
		b.StopTimer()
		total := float64(b.N) * float64(sessions) * frameN
		if sec := b.Elapsed().Seconds(); sec > 0 {
			sps := total / sec
			b.ReportMetric(sps/360, "sessions/core")
			b.ReportMetric(1e9*sec/total, "ns/sample")
		}
		b.ReportMetric((float64(live)-float64(base))/1024/float64(sessions), "live-KiB/session")
		return lats
	}

	b.Run("sessions", func(b *testing.B) {
		run(b, 4096, false)
	})
	b.Run("latency", func(b *testing.B) {
		lats := run(b, 256, true)
		if len(lats) == 0 {
			return
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p99 := lats[len(lats)*99/100]
		b.ReportMetric(float64(p99)/1e3, "p99-latency-us")
	})
}

// BenchmarkTransport measures the full streaming path — framing, link,
// ingest, drain, events — once per transport: the in-process loop
// (serve.Run) against real loopback TCP and UDP sockets (serve.Listen +
// serve.RunNet, length-delimited frames with lockstep drain-sync). One
// benchmark iteration is one complete 32-session run over a 2-second
// record, including the dial; the inproc/tcp/udp sessions-per-core gap
// is the price of the wire.
func BenchmarkTransport(b *testing.B) {
	gen := ecg.DefaultConfig()
	gen.FS = 360
	gen.Seed = 11
	rec, err := gen.Generate("transport-360", 2*360)
	if err != nil {
		b.Fatal(err)
	}
	var b9 pantompkins.Config
	for i, st := range pantompkins.Stages {
		k := []int{10, 12, 2, 8, 16}[i]
		b9.Stage[st] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	}

	const sessions = 32
	sources := make([]serve.Source, sessions)
	for i := range sources {
		sources[i] = serve.Source{Session: uint32(i + 1), Samples: rec.Samples}
	}
	cfg := serve.Config{FS: 360, Pipeline: b9, MaxSessions: sessions}

	report := func(b *testing.B) {
		total := float64(b.N) * float64(sessions) * float64(len(rec.Samples))
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(total/sec/360, "sessions/core")
			b.ReportMetric(1e9*sec/total, "ns/sample")
		}
	}

	b.Run("inproc", func(b *testing.B) {
		svc, err := serve.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		run := func() {
			if _, err := serve.Run(svc, serve.TransportConfig{FrameSamples: 32}, sources, nil); err != nil {
				b.Fatal(err)
			}
		}
		run() // warm: build every session's pipeline off the clock
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		b.StopTimer()
		report(b)
	})

	for _, network := range []string{"tcp", "udp"} {
		b.Run(network, func(b *testing.B) {
			svc, err := serve.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ln, err := serve.Listen(serve.ListenConfig{Network: network}, svc)
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			run := func() {
				st, err := serve.RunNet(serve.NetConfig{
					Network: network, Addr: ln.Addr().String(),
					FrameSamples: 32, Seed: 11,
				}, sources)
				if err != nil {
					b.Fatal(err)
				}
				if st.Shed != 0 {
					b.Fatalf("%d frames shed on a loopback run", st.Shed)
				}
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			report(b)
		})
	}
}

// BenchmarkGateway measures the sharded front door over the same workload
// as BenchmarkServe/sessions: 4096 sessions hashed across N Service
// shards, one BLE frame per session per iteration, every shard drained on
// its own worker and the batches merged into the canonical stream. The
// per-shard drains run concurrently, so aggregate sessions/core scales
// with shard count from 2 cores up; on a single-core host the workers are
// time-sliced and the shard counts mainly measure the merge overhead
// (same caveat as BenchmarkDSEWorkers).
func BenchmarkGateway(b *testing.B) {
	gen := ecg.DefaultConfig()
	gen.FS = 360
	gen.Seed = 11
	rec, err := gen.Generate("gateway-360", 8*360)
	if err != nil {
		b.Fatal(err)
	}
	var b9 pantompkins.Config
	for i, st := range pantompkins.Stages {
		k := []int{10, 12, 2, 8, 16}[i]
		b9.Stage[st] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	}

	const sessions = 4096
	const frameN = 24
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			gw, err := serve.NewGateway(serve.GatewayConfig{
				Shards: shards,
				// 2x slack on the hash spread so no shard ever evicts.
				Service: serve.Config{
					FS: 360, Pipeline: b9, MaxSessions: 2 * sessions,
					BufferSamples: 4 * frameN,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer gw.Close()
			pos := make([]int, sessions)
			seqs := make([]uint16, sessions)
			var buf []byte
			var events []serve.Event
			round := func() {
				for sess := 0; sess < sessions; sess++ {
					p := pos[sess]
					if p+frameN > len(rec.Samples) {
						p = 0
					}
					buf, seqs[sess] = serve.SplitFrames(buf[:0], uint32(sess+1), seqs[sess], 0, rec.Samples[p:p+frameN])
					if _, err := gw.Ingest(buf); err != nil {
						b.Fatal(err)
					}
					pos[sess] = p + frameN
				}
				events = gw.Drain(events[:0])
			}
			// Warm a full record cycle off the clock (see BenchmarkServe):
			// without it, shard-count comparisons are skewed by how much of
			// the cold start each b.N happens to amortize.
			for r := 0; r < len(rec.Samples)/frameN; r++ {
				round()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			if st := gw.Stats(); st.Evictions != 0 {
				b.Fatalf("%d evictions during the benchmark", st.Evictions)
			}
			total := float64(b.N) * float64(sessions) * frameN
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(total/sec/360, "sessions/core")
				b.ReportMetric(1e9*sec/total, "ns/sample")
			}
		})
	}
}
