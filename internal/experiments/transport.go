package experiments

import (
	"fmt"
	"strings"

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
	if opts.Sessions <= 0 {
		opts.Sessions = 4
	}
	if len(opts.Losses) == 0 {
		opts.Losses = []float64{0, 0.05}
	}
	if opts.Disconnect == 0 {
		opts.Disconnect = 0.01
	}
	if err := checkProbabilities("loss", opts.Losses...); err != nil {
		return nil, err
	}
	if err := checkProbabilities("disconnect", opts.Disconnect); err != nil {
		return nil, err
	}
	ref, err := s.streamPeaks(cfg)
	if err != nil {
		return nil, err
	}
	res := &TransportResult{Opts: opts}

	// Phase 1: fault-free bit-identity, socket vs in-process.
	networks := []string{"tcp", "udp"}
	if opts.Network != "" {
		networks = []string{opts.Network}
	}
	for _, shards := range []int{1, 4} {
		run := gatewayRun{cfg: cfg, sessions: opts.Sessions, shards: shards, addr: opts.Addr, netSeed: opts.Seed}
		want, err := s.runGateway(run)
		if err != nil {
			return nil, err
		}
		if len(want.events) == 0 {
			return nil, fmt.Errorf("experiments: in-process transport produced no events")
		}
		for _, network := range networks {
			run.network = network
			got, err := s.runGateway(run)
			if err != nil {
				return nil, err
			}
			if got.client.Nacks != 0 || got.client.Shed != 0 {
				return nil, fmt.Errorf("experiments: fault-free %s run saw %d NACKs, %d shed", network, got.client.Nacks, got.client.Shed)
			}
			if len(got.events) != len(want.events) {
				return nil, fmt.Errorf("experiments: %s shards=%d emitted %d events, in-process %d",
					network, shards, len(got.events), len(want.events))
			}
			for i := range want.events {
				if got.events[i] != want.events[i] {
					return nil, fmt.Errorf("experiments: %s shards=%d event %d diverged from in-process transport",
						network, shards, i)
				}
			}
			res.Identity = append(res.Identity, TransportIdentity{
				Network: network, Shards: shards, Events: len(want.events),
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
	err = s.lossSweep(gatewayRun{
		cfg: cfg, sessions: opts.Sessions, shards: 2, seed: opts.Seed,
		network: network, addr: opts.Addr, disconnect: opts.Disconnect,
	}, opts.Losses, ref, func(r gatewayRun, recovered float64, out *gatewayOut) {
		res.Rows = append(res.Rows, TransportRow{
			Loss:       r.loss,
			Policy:     r.policy,
			Recovered:  recovered,
			Reconnects: out.client.Reconnects,
			Nacks:      out.client.Nacks,
			Shed:       out.client.Shed,
			SrvFrames:  out.srvFrames,
		})
	})
	if err != nil {
		return nil, err
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
	writeLossPivot(&sb, len(r.Rows), func(i int) (float64, float64) { return r.Rows[i].Loss, r.Rows[i].Recovered })
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
