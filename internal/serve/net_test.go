package serve

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// countFDs counts the process's open file descriptors (linux); -1 when
// the proc filesystem is unavailable.
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// leakBaseline snapshots goroutine and fd counts; the returned check
// fails the test if either is still above the baseline after a grace
// period — the acceptance gate's zero goroutine/socket leak check.
func leakBaseline(t *testing.T) func() {
	t.Helper()
	g0, fd0 := runtime.NumGoroutine(), countFDs()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			g, fd := runtime.NumGoroutine(), countFDs()
			if g <= g0 && (fd0 < 0 || fd <= fd0) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("leak: %d goroutines (baseline %d), %d fds (baseline %d)", g, g0, fd, fd0)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// waitFor polls cond to true within the deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// rawConn is a hand-rolled wire client for poking the listener directly.
type rawConn struct {
	t   *testing.T
	c   net.Conn
	acc []byte
	tmp []byte
}

func dialRaw(t *testing.T, network, addr string) *rawConn {
	t.Helper()
	c, err := net.DialTimeout(network, addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return &rawConn{t: t, c: c, tmp: make([]byte, 2048)}
}

func (r *rawConn) send(typ byte, payload []byte) {
	r.t.Helper()
	r.c.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if _, err := r.c.Write(appendWire(nil, typ, payload)); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawConn) read() (byte, []byte) {
	r.t.Helper()
	typ, payload, err := r.readErr()
	if err != nil {
		r.t.Fatal(err)
	}
	return typ, payload
}

func (r *rawConn) readErr() (byte, []byte, error) {
	for {
		typ, payload, m, perr := parseWire(r.acc)
		if perr == nil {
			out := append([]byte(nil), payload...)
			r.acc = r.acc[:copy(r.acc, r.acc[m:])]
			return typ, out, nil
		}
		if perr != ErrTruncated {
			return 0, nil, perr
		}
		r.c.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := r.c.Read(r.tmp)
		if n > 0 {
			r.acc = append(r.acc, r.tmp[:n]...)
		}
		if err != nil {
			return 0, nil, err
		}
	}
}

func (r *rawConn) close() { r.c.Close() }

// TestNetBitIdentity is the socket acceptance gate: for TCP and UDP
// loopback, fault-free, the event stream observed server-side must be
// bit-identical to the in-process serve.Run transport over the same
// gateway config, for shard counts {1, 4}.
func TestNetBitIdentity(t *testing.T) {
	svcCfg := Config{FS: record(t, 0, 8).FS, Pipeline: b9Config(), MaxSessions: 16}
	ids := []uint32{1, 2, 3, 4, 5, 6}
	for _, shards := range []int{1, 4} {
		ref, err := NewGateway(GatewayConfig{Shards: shards, Service: svcCfg})
		if err != nil {
			t.Fatal(err)
		}
		want := driveRun(t, ref, gatewaySources(t, ids))
		ref.Close()
		if len(want) == 0 {
			t.Fatal("in-process reference produced no events")
		}
		for _, network := range []string{"tcp", "udp"} {
			t.Run(fmt.Sprintf("%s/shards=%d", network, shards), func(t *testing.T) {
				leaks := leakBaseline(t)
				g, err := NewGateway(GatewayConfig{Shards: shards, Service: svcCfg})
				if err != nil {
					t.Fatal(err)
				}
				var log []Event
				ln, err := Listen(ListenConfig{
					Network:  network,
					OnEvents: func(evs []Event) { log = append(log, evs...) },
				}, g)
				if err != nil {
					t.Fatal(err)
				}
				st, err := RunNet(NetConfig{
					Network: network, Addr: ln.Addr().String(),
					FrameSamples: 24, Seed: 1,
				}, gatewaySources(t, ids))
				if err != nil {
					t.Fatal(err)
				}
				ln.Close()
				g.Close()
				if st.Nacks != 0 || st.Reconnects != 0 || st.Shed != 0 {
					t.Fatalf("fault-free run saw faults: %+v", st)
				}
				if len(log) != len(want) {
					t.Fatalf("%d events over %s, in-process emitted %d", len(log), network, len(want))
				}
				for i := range want {
					if log[i] != want[i] {
						t.Fatalf("event %d: %+v != in-process %+v", i, log[i], want[i])
					}
				}
				leaks()
			})
		}
	}
}

// TestNetBackpressureNack drives the full NACK/backoff path: a sink too
// small for the record forces ErrBackpressure on the server, which must
// surface as NACK frames, drive client retransmissions, and still
// deliver every sample (no shed frames, detection identical to the
// reference).
func TestNetBackpressureNack(t *testing.T) {
	leaks := leakBaseline(t)
	rec := record(t, 0, 1500)
	svc, err := New(Config{FS: rec.FS, MaxSessions: 2, BufferSamples: 48, Quantum: 16})
	if err != nil {
		t.Fatal(err)
	}
	traces := make(map[uint32]*sessionTrace)
	ln, err := Listen(ListenConfig{
		Network:  "tcp",
		OnEvents: func(evs []Event) { collectTraces(traces, evs) },
	}, svc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunNet(NetConfig{
		Network: "tcp", Addr: ln.Addr().String(),
		FrameSamples: 32, Seed: 3, BackoffBase: 50 * time.Microsecond,
	}, []Source{{Session: 1, Samples: rec.Samples}})
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if st.Nacks == 0 || st.Retries == 0 {
		t.Fatalf("48-sample buffer produced no NACKs: %+v", st)
	}
	if st.Shed != 0 {
		t.Fatalf("%d frames shed despite retransmissions", st.Shed)
	}
	if lst := ln.Stats(); lst.Nacks == 0 {
		t.Fatalf("listener counted no NACKs: %+v", lst)
	}
	tr := traces[1]
	if tr == nil || !tr.finished {
		t.Fatal("session did not finish")
	}
	checkIdentical(t, 1, tr, refDetection(t, pantompkins.AccurateConfig(), rec.FS, rec.Samples))
	leaks()
}

// TestNetChaosReconnect injects client-side chaos — seeded mid-stream
// disconnects tearing connections down mid-message, plus partial writes
// that chop every frame across many TCP segments — and requires the run
// to complete with the server absorbing the reconnects and no leaked
// goroutines or sockets.
func TestNetChaosReconnect(t *testing.T) {
	leaks := leakBaseline(t)
	rec := record(t, 0, 2000)
	g, err := NewGateway(GatewayConfig{Shards: 2,
		Service: Config{FS: rec.FS, MaxSessions: 8, Conceal: GapHold}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Listen(ListenConfig{Network: "tcp"}, g)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunNet(NetConfig{
		Network: "tcp", Addr: ln.Addr().String(),
		FrameSamples: 24, Seed: 9,
		Disconnect: 0.03, PartialWrites: true,
		BackoffBase: 50 * time.Microsecond,
	}, []Source{
		{Session: 1, Samples: rec.Samples},
		{Session: 2, Samples: rec.Samples},
		{Session: 3, Samples: rec.Samples},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reconnects == 0 {
		t.Fatalf("chaos run never reconnected: %+v", st)
	}
	lst := ln.Stats()
	if lst.Frames == 0 || lst.Accepted < 2 {
		t.Fatalf("listener saw %d frames over %d transports", lst.Frames, lst.Accepted)
	}
	ln.Close()
	g.Close()
	leaks()
}

// TestNetIdleReap: a transport session that goes quiet past IdleTimeout
// is reaped — the TCP connection closed, the UDP peer forgotten — and
// counted in Stats.Timeouts.
func TestNetIdleReap(t *testing.T) {
	for _, network := range []string{"tcp", "udp"} {
		t.Run(network, func(t *testing.T) {
			leaks := leakBaseline(t)
			svc, err := New(Config{FS: 360, MaxSessions: 2})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := Listen(ListenConfig{
				Network: network, IdleTimeout: 50 * time.Millisecond,
			}, svc)
			if err != nil {
				t.Fatal(err)
			}
			c := dialRaw(t, network, ln.Addr().String())
			c.send(wireData, AppendFrame(nil, 1, 0, FlagStart, []int16{1, 2, 3}))
			waitFor(t, "session accepted", func() bool { return ln.Stats().Accepted == 1 })
			// Go quiet: the read deadline (TCP) or the peer sweep (UDP)
			// must reap the session.
			waitFor(t, "idle reap", func() bool {
				st := ln.Stats()
				return st.Timeouts >= 1 && st.Active == 0
			})
			c.close()
			ln.Close()
			leaks()
		})
	}
}

// TestNetConnShed: a transport session beyond MaxConns is refused with
// wireBusy and counted in Stats.Shed, for both transports.
func TestNetConnShed(t *testing.T) {
	for _, network := range []string{"tcp", "udp"} {
		t.Run(network, func(t *testing.T) {
			leaks := leakBaseline(t)
			svc, err := New(Config{FS: 360, MaxSessions: 2})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := Listen(ListenConfig{Network: network, MaxConns: 1}, svc)
			if err != nil {
				t.Fatal(err)
			}
			c1 := dialRaw(t, network, ln.Addr().String())
			c1.send(wireDrainReq, nil)
			if typ, _ := c1.read(); typ != wireDrained {
				t.Fatalf("first session got 0x%02x, want wireDrained", typ)
			}
			c2 := dialRaw(t, network, ln.Addr().String())
			c2.send(wireDrainReq, nil)
			if typ, _, err := c2.readErr(); err != nil || typ != wireBusy {
				t.Fatalf("second session got 0x%02x err=%v, want wireBusy", typ, err)
			}
			if st := ln.Stats(); st.Shed != 1 || st.Accepted != 1 {
				t.Fatalf("shed stats: %+v", st)
			}
			c1.close()
			c2.close()
			ln.Close()
			leaks()
		})
	}
}

// TestNetRateShedGapAccountsOnce mirrors TestGapBackpressureAccountsOnce
// for the overload path: a gap-carrying frame shed by the ingest-rate
// limiter must leave the sink untouched, and the gap must account exactly
// once when the frame is retried after the NACK — one EventGap, one
// GapFrames increment.
func TestNetRateShedGapAccountsOnce(t *testing.T) {
	leaks := leakBaseline(t)
	rec := record(t, 0, 600)
	svc, err := New(Config{FS: rec.FS, MaxSessions: 1, Conceal: GapHold})
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Int64
	var log []Event
	ln, err := Listen(ListenConfig{
		Network: "tcp", MaxFrameRate: 1, RateBurst: 1,
		Now:      func() int64 { return clock.Load() },
		OnEvents: func(evs []Event) { log = append(log, evs...) },
	}, svc)
	if err != nil {
		t.Fatal(err)
	}
	c := dialRaw(t, "tcp", ln.Addr().String())
	// Frame 0 spends the only token.
	c.send(wireData, AppendFrame(nil, 1, 0, FlagStart, rec.Samples[:64]))
	// Frame 2 — frame 1 was lost upstream, so this frame carries a gap —
	// arrives with the bucket empty: shed, NACKed, sink untouched.
	gapFrame := AppendFrame(nil, 1, 2, 0, rec.Samples[128:192])
	c.send(wireData, gapFrame)
	typ, payload := c.read()
	if typ != wireNack {
		t.Fatalf("over-rate frame got 0x%02x, want wireNack", typ)
	}
	session, seq, reason, err := parseNackMsg(payload)
	if err != nil || session != 1 || seq != 2 || reason != nackShed {
		t.Fatalf("NACK = session %d seq %d reason %d err %v", session, seq, reason, err)
	}
	ln.Stats() // synchronize with the handler before reading sink counters
	if st := svc.Stats(); st.GapFrames != 0 || st.LostFrames != 0 || st.Concealed != 0 {
		t.Fatalf("shed gap frame mutated the sink: %+v", st)
	}
	// One refilled token later the retry must land, accounting the gap
	// exactly once.
	clock.Store(int64(2 * time.Second))
	c.send(wireData, gapFrame)
	c.send(wireDrainReq, nil)
	if typ, _ := c.read(); typ != wireDrained {
		t.Fatalf("drain got 0x%02x, want wireDrained", typ)
	}
	ln.Stats()
	if st := svc.Stats(); st.GapFrames != 1 || st.LostFrames != 1 || st.Concealed != 64 {
		t.Fatalf("retry accounting: GapFrames=%d LostFrames=%d Concealed=%d",
			st.GapFrames, st.LostFrames, st.Concealed)
	}
	c.close()
	ln.Close()
	gaps := 0
	for _, ev := range log {
		if ev.Kind == EventGap {
			gaps++
		}
	}
	if gaps != 1 {
		t.Fatalf("%d EventGap events, want exactly 1", gaps)
	}
	if lst := ln.Stats(); lst.Shed != 1 || lst.Nacks != 1 {
		t.Fatalf("listener shed stats: %+v", lst)
	}
	leaks()
}

// panicSink poisons one session id to test handler isolation.
type panicSink struct{ *Service }

func (p panicSink) Ingest(buf []byte) (int, error) {
	if hdr, _, _, err := parseFrame(buf); err == nil && hdr.session == 666 {
		panic("poisoned session")
	}
	return p.Service.Ingest(buf)
}

// TestNetPanicIsolation: a handler panic kills only its own transport
// session; the listener and other connections keep serving.
func TestNetPanicIsolation(t *testing.T) {
	leaks := leakBaseline(t)
	svc, err := New(Config{FS: 360, MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Listen(ListenConfig{Network: "tcp"}, panicSink{svc})
	if err != nil {
		t.Fatal(err)
	}
	bad := dialRaw(t, "tcp", ln.Addr().String())
	bad.send(wireData, AppendFrame(nil, 666, 0, FlagStart, []int16{1}))
	if _, _, err := bad.readErr(); err == nil {
		t.Fatal("poisoned connection survived its panic")
	}
	waitFor(t, "panic counted", func() bool { return ln.Stats().Panics == 1 })
	good := dialRaw(t, "tcp", ln.Addr().String())
	good.send(wireData, AppendFrame(nil, 1, 0, FlagStart, []int16{1, 2}))
	good.send(wireDrainReq, nil)
	if typ, _ := good.read(); typ != wireDrained {
		t.Fatalf("listener dead after isolated panic: got 0x%02x", typ)
	}
	bad.close()
	good.close()
	ln.Close()
	leaks()
}

// TestNetGracefulClose: Close stops accepts, ends every live sample
// session through a synthesized FlagEnd, drains the detections out
// through OnEvents, and is idempotent; afterwards nothing is reachable
// and nothing leaks.
func TestNetGracefulClose(t *testing.T) {
	leaks := leakBaseline(t)
	rec := record(t, 0, 1200)
	svc, err := New(Config{FS: rec.FS, MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	var log []Event
	ln, err := Listen(ListenConfig{
		Network:  "tcp",
		OnEvents: func(evs []Event) { log = append(log, evs...) },
	}, svc)
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	c := dialRaw(t, "tcp", addr)
	c.send(wireData, AppendFrame(nil, 7, 0, FlagStart, rec.Samples[:64]))
	c.send(wireData, AppendFrame(nil, 7, 1, 0, rec.Samples[64:128]))
	c.send(wireDrainReq, nil)
	c.read() // barrier: both frames are in the sink

	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	finished := false
	for _, ev := range log {
		if ev.Session == 7 && ev.Kind == EventFinished {
			finished = true
		}
	}
	if !finished {
		t.Fatal("graceful close did not drain session 7 through FlagEnd")
	}
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after Close")
	}
	c.close()
	leaks()
}

// TestNetGracefulCloseConcurrent hammers Close from many goroutines
// while a client is mid-stream: exactly one close wins, none panic, and
// everything drains (run under -race).
func TestNetGracefulCloseConcurrent(t *testing.T) {
	leaks := leakBaseline(t)
	rec := record(t, 0, 1200)
	svc, err := New(Config{FS: rec.FS, MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Listen(ListenConfig{Network: "tcp"}, svc)
	if err != nil {
		t.Fatal(err)
	}
	c := dialRaw(t, "tcp", ln.Addr().String())
	c.send(wireData, AppendFrame(nil, 3, 0, FlagStart, rec.Samples[:64]))
	c.send(wireDrainReq, nil)
	c.read()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			ln.Close()
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	c.close()
	leaks()
}

// TestRunNetFrameSizeError: an oversize frame request is rejected up
// front with ErrFrameSize, before any dialing.
func TestRunNetFrameSizeError(t *testing.T) {
	_, err := RunNet(NetConfig{FrameSamples: MaxFrameSamples + 1, Addr: "127.0.0.1:1"}, nil)
	if !errors.Is(err, ErrFrameSize) {
		t.Fatalf("err = %v, want ErrFrameSize", err)
	}
}

// TestRunNetLinkFlushMatchesRun: over links that reorder, lose and
// duplicate frames (no transport chaos), RunNet's server-side event
// stream up to Listener.Close equals Run's over identically seeded links,
// for TCP and UDP at shard counts {1, 2}. The reordering links still hold
// frames after the last round; both loops deliver them from Flush, and
// RunNet must drain once more before its quiesce reads the buffered count.
func TestRunNetLinkFlushMatchesRun(t *testing.T) {
	ids := []uint32{1, 2, 3, 4}
	svcCfg := Config{FS: record(t, 0, 8).FS, Pipeline: b9Config(), MaxSessions: 8, Quantum: 24, Conceal: GapHold}
	sources := func(seed uint64) []Source {
		srcs := gatewaySources(t, ids)
		for i := range srcs {
			srcs[i].Link = NewFaultLink(FaultConfig{
				Seed: seed<<8 | uint64(srcs[i].Session),
				Loss: 0.05, Dup: 0.03, Reorder: 0.1,
			})
		}
		return srcs
	}
	flushed := 0
	for seed := uint64(1); seed <= 3; seed++ {
		// A link's draws depend only on how many frames it was offered,
		// so a twin fed as many placeholders holds what the real one does.
		for _, src := range sources(seed) {
			for i := 0; i < (len(src.Samples)+23)/24; i++ {
				src.Link.Push(nil)
			}
			flushed += len(src.Link.Flush())
		}
		for _, shards := range []int{1, 2} {
			ref, err := NewGateway(GatewayConfig{Shards: shards, Service: svcCfg})
			if err != nil {
				t.Fatal(err)
			}
			want := driveRun(t, ref, sources(seed))
			ref.Close()
			for _, network := range []string{"tcp", "udp"} {
				t.Run(fmt.Sprintf("seed=%d/%s/shards=%d", seed, network, shards), func(t *testing.T) {
					g, err := NewGateway(GatewayConfig{Shards: shards, Service: svcCfg})
					if err != nil {
						t.Fatal(err)
					}
					defer g.Close()
					var mu sync.Mutex
					var log []Event
					ln, err := Listen(ListenConfig{
						Network: network,
						OnEvents: func(evs []Event) {
							mu.Lock()
							log = append(log, evs...)
							mu.Unlock()
						},
					}, g)
					if err != nil {
						t.Fatal(err)
					}
					defer ln.Close()
					if _, err := RunNet(NetConfig{
						Network: network, Addr: ln.Addr().String(),
						FrameSamples: 24, Seed: seed,
					}, sources(seed)); err != nil {
						t.Fatal(err)
					}
					mu.Lock()
					got := append([]Event(nil), log...)
					mu.Unlock()
					if len(got) != len(want) {
						t.Fatalf("%d events over %s, in-process emitted %d", len(got), network, len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("event %d: %+v != in-process %+v", i, got[i], want[i])
						}
					}
				})
			}
		}
	}
	if flushed == 0 {
		t.Fatal("no link held a frame until Flush: the test no longer reaches the flush path")
	}
	t.Logf("%d frames delivered from link flushes per run set", flushed)
}
