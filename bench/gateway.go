package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/serve"
)

// The gateway workloads stream 360 Hz wearable ECG through the paper's B9
// design (LSBs 10/12/2/8/16, ApproxAdd5 and AppMultV1) in BLE-sized frames.
const (
	serveFS         = 360
	frameN          = 24
	steadySessions  = 4096
	steadyRecords   = 16
	steadyRecordSec = 8 // 120 frames; every session loops its record
	warmupRounds    = 2 * serveFS / frameN
	refSessions     = 8
	churnSessions   = 32
	churnRecordSec  = 4
)

func b9() pantompkins.Config {
	var cfg pantompkins.Config
	for i, s := range pantompkins.Stages {
		cfg.Stage[s] = dsp.ArithConfig{LSBs: [5]int{10, 12, 2, 8, 16}[i], Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	}
	return cfg
}

// serveRecords draws n records of the given length at 360 Hz: record i
// takes NSRDB-like subject profile i (mod 18) and a seed-drawn generator
// seed.
func serveRecords(e *env, stream uint64, n, seconds int) ([][]int16, error) {
	rng := rand.New(rand.NewPCG(e.seed, stream))
	var out [][]int16
	err := e.timed("ecg.generate_ms", func() error {
		for i := 0; i < n; i++ {
			cfg, err := ecg.NSRDBConfig(i % ecg.NumNSRDBRecords)
			if err != nil {
				return err
			}
			cfg.FS = serveFS
			cfg.Seed = rng.Int64()
			rec, err := cfg.Generate(fmt.Sprintf("serve-%02d", i), seconds*serveFS)
			if err != nil {
				return err
			}
			out = append(out, rec.Samples)
		}
		return nil
	})
	return out, err
}

// steadyFixture is serve-steady: one op is one radio round in which every
// session delivers one frame, then the gateway drains.
type steadyFixture struct {
	e    *env
	gw   *serve.Gateway
	recs [][]int16
	rec  []int32 // session -> record
	pos  []int32 // session -> next sample
	seqs []uint16

	buf    []byte
	events []serve.Event
	st0    serve.Stats

	// Sessions 1..refSessions are checked against a reference
	// Pipeline.Stream fed the same samples.
	refs    []*pantompkins.Stream
	emitted [][]int

	round                              int32
	allocs                             uint64
	tracedOps, totalBeats              int
	evSum, beats, backpressure, evicts float64
}

func setupSteady(e *env) (fixture, error) {
	recs, err := serveRecords(e, 1, steadyRecords, steadyRecordSec)
	if err != nil {
		return nil, err
	}
	gw, err := serve.NewGateway(serve.GatewayConfig{Shards: 1, Service: serve.Config{
		FS: serveFS, Pipeline: b9(), MaxSessions: steadySessions, BufferSamples: 4 * frameN,
	}})
	if err != nil {
		return nil, err
	}
	f := &steadyFixture{e: e, gw: gw, recs: recs,
		rec: make([]int32, steadySessions), pos: make([]int32, steadySessions), seqs: make([]uint16, steadySessions),
		emitted: make([][]int, refSessions)}
	// Sessions start at seed-drawn frame offsets, so beats spread over
	// rounds instead of arriving together.
	rng := rand.New(rand.NewPCG(e.seed, 2))
	frames := steadyRecordSec * serveFS / frameN
	for s := range f.rec {
		f.rec[s] = int32(rng.IntN(len(recs)))
		f.pos[s] = int32(rng.IntN(frames) * frameN)
	}
	for s := 0; s < refSessions; s++ {
		p, err := pantompkins.New(b9())
		if err != nil {
			return nil, err
		}
		f.refs = append(f.refs, p.Stream(serveFS))
	}
	// A 2 s record cycle connects every session, builds its pipeline,
	// wraps its ring and completes the detectors' learning window.
	for r := 0; r < warmupRounds; r++ {
		if err := f.prepare(-1); err == nil {
			err = f.run(-1)
		}
		if err == nil {
			err = f.finish(-1)
		}
		if err != nil {
			gw.Close()
			return nil, fmt.Errorf("warm-up round %d: %w", r, err)
		}
	}
	return f, nil
}

func (f *steadyFixture) prepare(int) error {
	tr := f.e.tr
	f.round = tr.begin("bench.round", 0)
	id := tr.begin("bench.framegen", f.round)
	f.buf = f.buf[:0]
	for s := range f.rec {
		rec := f.recs[f.rec[s]]
		p := f.pos[s]
		samples := rec[p : p+frameN]
		f.buf = serve.AppendFrame(f.buf, uint32(s+1), f.seqs[s], 0, samples)
		f.seqs[s]++
		if p += frameN; int(p) == len(rec) {
			p = 0
		}
		f.pos[s] = p
		if s < refSessions {
			for _, x := range samples {
				f.refs[s].Push(x)
			}
		}
	}
	tr.end(id)
	f.st0 = f.gw.Stats()
	return nil
}

func (f *steadyFixture) run(int) error {
	tr := f.e.tr
	id := tr.begin("serve.Gateway.Ingest", f.round)
	n, err := f.gw.Ingest(f.buf)
	tr.end(id)
	if err != nil {
		return err
	}
	if n != steadySessions {
		return fmt.Errorf("ingested %d of %d frames", n, steadySessions)
	}
	var ms0 runtime.MemStats
	if id != 0 {
		runtime.ReadMemStats(&ms0)
	}
	id = tr.begin("serve.Gateway.Drain", f.round)
	f.events = f.gw.Drain(f.events[:0])
	tr.end(id)
	if id != 0 {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		f.allocs += ms1.Mallocs - ms0.Mallocs
	}
	return nil
}

// finish collects the round's beats and checks sessions 1..refSessions
// against their reference streams, which have seen the same samples.
func (f *steadyFixture) finish(int) error {
	tr := f.e.tr
	id := tr.begin("bench.collect", f.round)
	beats := 0
	for _, ev := range f.events {
		if ev.Kind != serve.EventBeat {
			continue
		}
		beats++
		if s := int(ev.Session) - 1; s < refSessions {
			f.emitted[s] = append(f.emitted[s], ev.Peak)
		}
	}
	var err error
	for s, ref := range f.refs {
		if want := ref.Detector().Detection().Peaks; !slices.Equal(f.emitted[s], want) && err == nil {
			err = fmt.Errorf("session %d emitted beats %v, reference stream %v", s+1, f.emitted[s], want)
		}
	}
	st := f.gw.Stats()
	if d := st.Backpressure - f.st0.Backpressure; d > 0 && err == nil {
		err = fmt.Errorf("%d frames hit backpressure", d)
	}
	if d := st.Evictions - f.st0.Evictions; d > 0 && err == nil {
		err = fmt.Errorf("%d sessions evicted", d)
	}
	tr.end(id)
	tr.end(f.round)
	f.totalBeats += beats
	if f.round != 0 {
		f.tracedOps++
		f.evSum += float64(len(f.events))
		f.beats += float64(beats)
		f.backpressure += float64(st.Backpressure - f.st0.Backpressure)
		f.evicts += float64(st.Evictions - f.st0.Evictions)
	}
	return err
}

func (f *steadyFixture) verify(int) error {
	if f.totalBeats == 0 {
		return fmt.Errorf("no beats detected across %d sessions", steadySessions)
	}
	return nil
}

func (f *steadyFixture) layers(m map[string]float64, _ []float64) {
	tr, n := f.e.tr, float64(max(f.tracedOps, 1))
	ingest, drain := tr.perOp("serve.Gateway.Ingest"), tr.perOp("serve.Gateway.Drain")
	gen, collect := tr.perOp("bench.framegen"), tr.perOp("bench.collect")
	m["serve.ingest_ms"] = ingest
	m["serve.ingest_ns_per_frame"] = ingest * 1e6 / steadySessions
	m["serve.drain_ms"] = drain
	m["serve.drain_allocs"] = float64(f.allocs) / n
	m["serve.events"] = f.evSum / n
	m["serve.beats"] = f.beats / n
	m["serve.backpressure"] = f.backpressure
	m["serve.evictions"] = f.evicts
	m["bench.framegen_ms"] = gen
	m["bench.collect_ms"] = collect
	m["serve.attribution_ratio"] = ratio(ingest+drain+gen+collect, tr.perOp("bench.round"))
}

func (f *steadyFixture) samplesPerOp() float64 { return steadySessions * frameN }
func (f *steadyFixture) close()                { f.gw.Close() }

// churnFixture is net-churn: one op is one serve.RunNet of churnSessions
// fresh sessions over one loopback TCP connection into a long-lived
// listener and service.
type churnFixture struct {
	e       *env
	svc     *lockedSink
	ln      *serve.Listener
	samples [][]int16
	sources []serve.Source
	want    []uint64 // per-source event digest of an in-process serve.Run

	mu   sync.Mutex // guards the fields the listener's OnEvents writes
	base uint32
	got  []uint64
	bad  error

	nst  serve.NetRunStats
	lst0 serve.NetStats
	st0  serve.Stats

	tracedOps                                               int
	frames, drains, nacks, shed, reconnects, resyncs, backs float64
	connects, finishes                                      float64
}

// lockedSink is the listener's view of the service: it times each sink
// call under the current run's span and serializes with the benchmark's
// reads of the service counters.
type lockedSink struct {
	mu     sync.Mutex
	svc    *serve.Service
	tr     *tracer
	parent atomic.Int32
}

func (s *lockedSink) Ingest(buf []byte) (int, error) {
	id := s.tr.begin("serve.Service.Ingest", s.parent.Load())
	s.mu.Lock()
	n, err := s.svc.Ingest(buf)
	s.mu.Unlock()
	s.tr.end(id)
	return n, err
}

func (s *lockedSink) Drain(events []serve.Event) []serve.Event {
	id := s.tr.begin("serve.Service.Drain", s.parent.Load())
	s.mu.Lock()
	events = s.svc.Drain(events)
	s.mu.Unlock()
	s.tr.end(id)
	return events
}

func (s *lockedSink) Buffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.svc.Buffered()
}

func (s *lockedSink) stats() serve.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.svc.Stats()
}

func setupChurn(e *env) (fixture, error) {
	samples, err := serveRecords(e, 3, churnSessions, churnRecordSec)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{FS: serveFS, Pipeline: b9(), MaxSessions: churnSessions}
	f := &churnFixture{e: e, samples: samples, sources: make([]serve.Source, churnSessions),
		want: make([]uint64, churnSessions), got: make([]uint64, churnSessions)}
	ref, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	f.setSources(0)
	if _, err := serve.Run(ref, serve.TransportConfig{FrameSamples: frameN}, f.sources, f.onEvents); err != nil {
		return nil, err
	}
	if f.bad != nil {
		return nil, f.bad
	}
	copy(f.want, f.got)

	svc, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	f.svc = &lockedSink{svc: svc, tr: e.tr}
	f.ln, err = serve.Listen(serve.ListenConfig{Network: "tcp", OnEvents: f.onEvents}, f.svc)
	if err != nil {
		return nil, err
	}
	// One run builds every slot's pipeline before the timed runs.
	if err := f.prepare(-1); err == nil {
		err = f.run(-1)
	}
	if err == nil {
		err = f.finish(-1)
	}
	if err != nil {
		f.ln.Close()
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return f, nil
}

// setSources gives op i's sources fresh session ids.
func (f *churnFixture) setSources(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.base = uint32(i+1) * churnSessions
	for k := range f.sources {
		f.sources[k] = serve.Source{Session: f.base + uint32(k) + 1, Samples: f.samples[k]}
		f.got[k] = fnvOffset
	}
}

// onEvents folds each session's events, in order, into its digest.
func (f *churnFixture) onEvents(events []serve.Event) {
	id := f.e.tr.begin("bench.onEvents", f.parent())
	f.mu.Lock()
	for _, ev := range events {
		k := int(ev.Session) - int(f.base) - 1
		if k < 0 || k >= len(f.got) {
			if f.bad == nil {
				f.bad = fmt.Errorf("event for unknown session %d", ev.Session)
			}
			continue
		}
		f.got[k] = mixEvent(f.got[k], ev)
	}
	f.mu.Unlock()
	f.e.tr.end(id)
}

func (f *churnFixture) parent() int32 {
	if f.svc == nil {
		return 0
	}
	return f.svc.parent.Load()
}

func (f *churnFixture) prepare(i int) error {
	f.setSources(i)
	f.lst0 = f.ln.Stats()
	f.st0 = f.svc.stats()
	return nil
}

func (f *churnFixture) run(int) error {
	tr := f.e.tr
	id := tr.begin("serve.RunNet", 0)
	f.svc.parent.Store(id)
	st, err := serve.RunNet(serve.NetConfig{Network: "tcp", Addr: f.ln.Addr().String(), FrameSamples: frameN, Seed: f.e.seed}, f.sources)
	tr.end(id)
	f.svc.parent.Store(0)
	f.nst = st
	return err
}

func (f *churnFixture) finish(int) error {
	ls, st := f.ln.Stats(), f.svc.stats()
	f.mu.Lock()
	got, bad := slices.Clone(f.got), f.bad
	f.mu.Unlock()
	var err error
	switch {
	case bad != nil:
		err = bad
	case f.nst.Nacks+f.nst.Shed+f.nst.Busy > 0 || ls.Nacks > f.lst0.Nacks || ls.Shed > f.lst0.Shed:
		err = fmt.Errorf("loopback run was pushed back: client %+v, listener %+v", f.nst, ls)
	case st.Finishes-f.st0.Finishes != churnSessions:
		err = fmt.Errorf("%d of %d sessions finished", st.Finishes-f.st0.Finishes, churnSessions)
	case !slices.Equal(got, f.want):
		err = fmt.Errorf("socket event digests %x differ from in-process serve.Run %x", got, f.want)
	}
	if f.e.tr.traced() {
		f.tracedOps++
		f.frames += float64(ls.Frames - f.lst0.Frames)
		f.drains += float64(ls.Drains - f.lst0.Drains)
		f.nacks += float64(ls.Nacks - f.lst0.Nacks)
		f.shed += float64(ls.Shed - f.lst0.Shed)
		f.reconnects += float64(ls.Reconnects - f.lst0.Reconnects)
		f.resyncs += float64(f.nst.Resyncs)
		f.backs += float64(f.nst.BackoffNs) / 1e6
		f.connects += float64(st.Connects - f.st0.Connects)
		f.finishes += float64(st.Finishes - f.st0.Finishes)
	}
	return err
}

func (f *churnFixture) verify(int) error { return nil }

func (f *churnFixture) layers(m map[string]float64, untraced []float64) {
	tr, n := f.e.tr, float64(max(f.tracedOps, 1))
	ingest, drain := tr.perOp("serve.Service.Ingest"), tr.perOp("serve.Service.Drain")
	onEv, run := tr.perOp("bench.onEvents"), tr.perOp("serve.RunNet")
	m["net.sink_ingest_ms"] = ingest
	m["net.sink_drain_ms"] = drain
	m["net.on_events_ms"] = onEv
	m["net.wire_ms"] = run - ingest - drain - onEv
	m["net.frames"] = f.frames / n
	m["net.drains"] = f.drains / n
	m["net.nacks"] = f.nacks
	m["net.shed"] = f.shed
	m["net.reconnects"] = f.reconnects
	m["net.resyncs"] = f.resyncs
	m["net.backoff_ms"] = f.backs
	m["serve.connects"] = f.connects / n
	m["serve.finishes"] = f.finishes / n
	// wire is what remains of the run, so the layers sum to the traced
	// run; the ratio says how well they account for the untraced runs.
	m["net.attribution_ratio"] = ratio(run, mean(untraced))
}

func (f *churnFixture) samplesPerOp() float64 {
	return churnSessions * churnRecordSec * serveFS
}

func (f *churnFixture) close() { f.ln.Close() }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mixEvent folds one event's fields into an FNV-1a style digest. The
// latency stamp is left out: it is the only field that depends on time.
func mixEvent(h uint64, ev serve.Event) uint64 {
	for _, v := range []int64{int64(ev.Kind), int64(ev.Det.Kind), int64(ev.Det.Index), int64(ev.Det.Filtered),
		ev.Det.Value, int64(ev.Peak), int64(ev.Gap)} {
		h = (h ^ uint64(v)) * fnvPrime
	}
	return h
}
