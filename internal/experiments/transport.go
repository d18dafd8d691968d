package experiments

import (
	"fmt"
	"strings"

	"github.com/xbiosip/xbiosip/internal/metrics"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/serve"
)

// TransportOpts parameterises the socket-transport chaos scenario.
type TransportOpts struct {
	// Network selects the transport: "tcp", "udp", or "" — which gates
	// identity over both and sweeps chaos over TCP.
	Network string
	// Addr is the listen address (default loopback with an ephemeral
	// port, so runs never collide).
	Addr string
	// Sessions is the number of concurrent patient streams (default 4),
	// cycling over the evaluation records.
	Sessions int
	// Losses is the packet-loss axis of the chaos sweep (default
	// {0, 0.05}); loss is injected client-side through the same seeded
	// FaultLink the in-process experiments use.
	Losses []float64
	// Disconnect is the per-frame probability that the client tears its
	// connection down mid-stream and redials (default 0.01); on TCP the
	// teardown lands mid-message thanks to partial writes.
	Disconnect float64
	// Seed makes the whole scenario — fault links, disconnect draws,
	// backoff jitter — reproducible.
	Seed uint64
}

// TransportIdentity is one fault-free identity-gate verdict: the event
// stream observed over a real loopback socket was bit-identical to the
// in-process transport's, for this network and shard count.
type TransportIdentity struct {
	Network string
	Shards  int
	Events  int // events compared (all equal, or the run errors)
}

// TransportRow is one chaos-sweep point: a loss rate and concealment
// policy, the recovered detection, and what the wire went through.
//
// Every field is a pure function of the seed, SrvFrames included: the
// client settles each connection with a drain round trip before a chaos
// disconnect tears it (serve.NetConfig.Disconnect), so no frame sent on
// the torn connection can reach the listener after, or instead of, the
// frames sent on the redialed one.
type TransportRow struct {
	Loss       float64
	Policy     serve.GapPolicy
	Recovered  float64 // mean per-session fraction of reference beats recovered
	Reconnects uint64  // client redials (chaos + error driven)
	Nacks      uint64  // NACK frames the client absorbed
	Shed       uint64  // frames abandoned after retries (counted lost)
	SrvFrames  uint64  // frames the listener ingested
}

// TransportResult is the outcome of the socket-transport scenario.
type TransportResult struct {
	Opts     TransportOpts
	Identity []TransportIdentity
	Rows     []TransportRow
}

// TransportResilience runs the gateway over real loopback sockets, in
// two phases. First the identity gate: under fault-free delivery, for
// shard counts {1, 4} (and both TCP and UDP unless Network picks one),
// the server-side event stream must be bit-identical to the in-process
// serve.Run transport — the socket is a transparent pipe when the
// network behaves. Then the chaos sweep: the delivery-resilience
// loss×policy grid rerun over a live socket with seeded mid-stream
// disconnects and partial writes layered on top of the packet loss,
// measuring how much detection the concealment policies recover when
// both the radio and the transport misbehave.
func (s *Setup) TransportResilience(cfg pantompkins.Config, opts TransportOpts) (*TransportResult, error) {
	if len(s.Records) == 0 {
		return nil, fmt.Errorf("experiments: no evaluation records")
	}
	if opts.Sessions <= 0 {
		opts.Sessions = 4
	}
	if len(opts.Losses) == 0 {
		opts.Losses = []float64{0, 0.05}
	}
	if opts.Disconnect == 0 {
		opts.Disconnect = 0.01
	}
	fs := s.Records[0].FS
	recOf := func(sess int) int { return sess % len(s.Records) }

	p, err := pantompkins.New(cfg)
	if err != nil {
		return nil, err
	}
	refPeaks := make([][]int, len(s.Records))
	for ri, rec := range s.Records {
		st := p.Stream(rec.FS)
		for _, x := range rec.Samples {
			st.Push(x)
		}
		refPeaks[ri] = append([]int(nil), st.Finish().Peaks...)
	}

	sources := func() []serve.Source {
		srcs := make([]serve.Source, opts.Sessions)
		for sess := range srcs {
			srcs[sess] = serve.Source{
				Session: uint32(sess + 1),
				Samples: s.Records[recOf(sess)].Samples,
			}
		}
		return srcs
	}
	gateway := func(shards int, policy serve.GapPolicy) (*serve.Gateway, error) {
		return serve.NewGateway(serve.GatewayConfig{
			Shards: shards,
			Service: serve.Config{
				FS: fs, Pipeline: cfg,
				MaxSessions: opts.Sessions * shards, Conceal: policy,
			},
		})
	}

	res := &TransportResult{Opts: opts}

	// Phase 1: fault-free bit-identity, socket vs in-process.
	networks := []string{"tcp", "udp"}
	if opts.Network != "" {
		networks = []string{opts.Network}
	}
	for _, shards := range []int{1, 4} {
		gw, err := gateway(shards, serve.GapDrop)
		if err != nil {
			return nil, err
		}
		var want []serve.Event
		if _, err := serve.Run(gw, serve.TransportConfig{FrameSamples: 32}, sources(),
			func(evs []serve.Event) { want = append(want, evs...) }); err != nil {
			return nil, err
		}
		gw.Close()
		if len(want) == 0 {
			return nil, fmt.Errorf("experiments: in-process transport produced no events")
		}
		for _, network := range networks {
			gw, err := gateway(shards, serve.GapDrop)
			if err != nil {
				return nil, err
			}
			var got []serve.Event
			ln, err := serve.Listen(serve.ListenConfig{
				Network: network, Addr: opts.Addr,
				OnEvents: func(evs []serve.Event) { got = append(got, evs...) },
			}, gw)
			if err != nil {
				return nil, err
			}
			nst, err := serve.RunNet(serve.NetConfig{
				Network: network, Addr: ln.Addr().String(),
				FrameSamples: 32, Seed: opts.Seed,
			}, sources())
			ln.Close()
			gw.Close()
			if err != nil {
				return nil, err
			}
			if nst.Nacks != 0 || nst.Shed != 0 {
				return nil, fmt.Errorf("experiments: fault-free %s run saw %d NACKs, %d shed", network, nst.Nacks, nst.Shed)
			}
			if len(got) != len(want) {
				return nil, fmt.Errorf("experiments: %s shards=%d emitted %d events, in-process %d",
					network, shards, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					return nil, fmt.Errorf("experiments: %s shards=%d event %d diverged from in-process transport",
						network, shards, i)
				}
			}
			res.Identity = append(res.Identity, TransportIdentity{
				Network: network, Shards: shards, Events: len(want),
			})
		}
	}

	// Phase 2: the loss×policy sweep over a live socket with chaos. TCP
	// unless a network was pinned — partial writes and torn messages only
	// exist on the stream transport.
	network := opts.Network
	if network == "" {
		network = "tcp"
	}
	for li, loss := range opts.Losses {
		for _, policy := range DeliveryPolicies {
			gw, err := gateway(2, policy)
			if err != nil {
				return nil, err
			}
			srcs := sources()
			if loss > 0 {
				for i := range srcs {
					// Seeded by sweep point and session, NOT policy: every
					// policy faces the identical delivery schedule.
					srcs[i].Link = serve.NewFaultLink(serve.FaultConfig{
						Seed: linkSeed(opts.Seed, li, srcs[i].Session),
						Loss: loss,
					})
				}
			}
			peaks := make([][]int, opts.Sessions)
			ln, err := serve.Listen(serve.ListenConfig{
				Network: network, Addr: opts.Addr,
				OnEvents: func(evs []serve.Event) {
					for _, ev := range evs {
						if ev.Kind == serve.EventBeat {
							peaks[ev.Session-1] = append(peaks[ev.Session-1], ev.Peak)
						}
					}
				},
			}, gw)
			if err != nil {
				return nil, err
			}
			nst, err := serve.RunNet(serve.NetConfig{
				Network: network, Addr: ln.Addr().String(),
				FrameSamples: 32,
				Seed:         linkSeed(opts.Seed, li, 0xC7A05),
				Disconnect:   opts.Disconnect,
				PartialWrites: network == "tcp",
			}, srcs)
			lst := ln.Stats()
			ln.Close()
			gw.Close()
			if err != nil {
				return nil, err
			}
			var sum float64
			for sess := 0; sess < opts.Sessions; sess++ {
				ref := refPeaks[recOf(sess)]
				if len(ref) == 0 {
					sum++
					continue
				}
				m, err := metrics.MatchPeaks(ref, peaks[sess], s.Eval.Tolerance)
				if err != nil {
					return nil, err
				}
				sum += m.Sensitivity()
			}
			res.Rows = append(res.Rows, TransportRow{
				Loss:       loss,
				Policy:     policy,
				Recovered:  sum / float64(opts.Sessions),
				Reconnects: nst.Reconnects,
				Nacks:      nst.Nacks,
				Shed:       nst.TransportStats.Shed,
				SrvFrames:  lst.Frames,
			})
		}
	}
	return res, nil
}

// FormatTransportResilience renders the socket scenario: the identity
// verdicts, then the chaos sweep as a loss-by-policy pivot.
func FormatTransportResilience(r *TransportResult) string {
	var sb strings.Builder
	sb.WriteString("Transport resilience: gateway over real loopback sockets\n")
	for _, id := range r.Identity {
		fmt.Fprintf(&sb, "identity: %-3s shards=%d — %d events bit-identical to in-process transport\n",
			id.Network, id.Shards, id.Events)
	}
	fmt.Fprintf(&sb, "chaos sweep: disconnect %.2f per frame + partial writes, recovered detection vs loss\n",
		r.Opts.Disconnect)
	fmt.Fprintf(&sb, "%6s", "loss")
	for _, p := range DeliveryPolicies {
		fmt.Fprintf(&sb, " %9s", p)
	}
	sb.WriteString("\n")
	for i := 0; i < len(r.Rows); i += len(DeliveryPolicies) {
		fmt.Fprintf(&sb, "%5.0f%%", 100*r.Rows[i].Loss)
		for j := 0; j < len(DeliveryPolicies); j++ {
			fmt.Fprintf(&sb, " %8.2f%%", 100*r.Rows[i+j].Recovered)
		}
		sb.WriteString("\n")
	}
	var rc, nk, shed uint64
	for _, row := range r.Rows {
		rc += row.Reconnects
		nk += row.Nacks
		shed += row.Shed
	}
	fmt.Fprintf(&sb, "across the sweep: %d reconnects, %d NACKs absorbed, %d frames shed on the wire\n",
		rc, nk, shed)
	return sb.String()
}
