package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/metrics"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/serve"
)

// gatewayRun is one run of a gateway scenario: sessions patient streams,
// session i (id i+1) replaying record i mod len(Records), framed 32
// samples at a time into a fresh shards-shard gateway whose sessions
// conceal gaps with policy.
type gatewayRun struct {
	cfg      pantompkins.Config
	sessions int
	shards   int
	policy   serve.GapPolicy
	// loss and burst put a fault link on every session, seeded from
	// (seed, point, session); both zero runs over perfect links.
	loss, burst float64
	seed        uint64
	point       int
	// network "" runs the in-process transport (serve.Run); "tcp" or
	// "udp" runs serve.RunNet against serve.Listen on addr. netSeed seeds
	// the client's draws. disconnect is its chaos knob, and a chaos run
	// over TCP also fragments its writes.
	network    string
	addr       string
	netSeed    uint64
	disconnect float64
}

// gatewayOut is what one gatewayRun observed.
type gatewayOut struct {
	events []serve.Event // every event the gateway emitted, in order
	stats  serve.Stats   // the gateway's summed service counters
	// client is the transport loop's counters; the wire-only ones stay
	// zero in-process.
	client    serve.NetRunStats
	srvFrames uint64        // socket runs: frames the listener ingested
	elapsed   time.Duration // wall time of the transport loop
}

// linkSeed derives one fault link's seed from the scenario seed, a sweep
// point and a session id (splitmix64-style mixing). Policies are NOT
// mixed in: every policy faces the identical fault realization, which is
// what makes policy comparisons fair.
func linkSeed(seed uint64, point int, session uint32) uint64 {
	z := seed + 0x9E3779B97F4A7C15*uint64(point+1) + uint64(session)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// checkProbabilities rejects any fault probability outside [0,1], naming
// the knob and the value.
func checkProbabilities(name string, ps ...float64) error {
	for _, p := range ps {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("experiments: %s probability %v outside [0,1]", name, p)
		}
	}
	return nil
}

// runGateway executes r and returns what the gateway emitted. The
// gateway, and on a socket run the listener, are closed on every return
// path; a listener's Close still delivers the events of the sessions it
// ends.
func (s *Setup) runGateway(r gatewayRun) (*gatewayOut, error) {
	if len(s.Records) == 0 {
		return nil, fmt.Errorf("experiments: no evaluation records")
	}
	// Each shard can hold every session: the hash spread is even but not
	// exact, and an eviction would break the fault-free identity gates.
	gw, err := serve.NewGateway(serve.GatewayConfig{
		Shards: r.shards,
		Service: serve.Config{
			FS: s.Records[0].FS, Pipeline: r.cfg,
			MaxSessions: r.sessions * r.shards, Conceal: r.policy,
		},
	})
	if err != nil {
		return nil, err
	}
	defer gw.Close()

	sources := make([]serve.Source, r.sessions)
	for i := range sources {
		id := uint32(i + 1)
		sources[i] = serve.Source{Session: id, Samples: s.Records[i%len(s.Records)].Samples}
		if r.loss > 0 || r.burst > 0 {
			sources[i].Link = serve.NewFaultLink(serve.FaultConfig{
				Seed: linkSeed(r.seed, r.point, id), Loss: r.loss, Burst: r.burst,
			})
		}
	}
	out := &gatewayOut{}
	collect := func(evs []serve.Event) { out.events = append(out.events, evs...) }
	start := time.Now()
	if r.network == "" {
		out.client.TransportStats, err = serve.Run(gw, serve.TransportConfig{FrameSamples: 32}, sources, collect)
	} else {
		ln, lerr := serve.Listen(serve.ListenConfig{Network: r.network, Addr: r.addr, OnEvents: collect}, gw)
		if lerr != nil {
			return nil, lerr
		}
		out.client, err = serve.RunNet(serve.NetConfig{
			Network: r.network, Addr: ln.Addr().String(),
			FrameSamples:  32,
			Seed:          r.netSeed,
			Disconnect:    r.disconnect,
			PartialWrites: r.disconnect > 0 && r.network == "tcp",
		}, sources)
		out.srvFrames = ln.Stats().Frames
		ln.Close()
	}
	out.elapsed = time.Since(start)
	if err != nil {
		return nil, err
	}
	out.stats = gw.Stats()
	return out, nil
}

// beats splits the run's beat events by session: peaks[i] holds session
// i+1's R peaks in emission order, and finished[i] whether it finished.
func (o *gatewayOut) beats(sessions int) (peaks [][]int, finished []bool) {
	peaks, finished = make([][]int, sessions), make([]bool, sessions)
	for _, ev := range o.events {
		switch ev.Kind {
		case serve.EventBeat:
			peaks[ev.Session-1] = append(peaks[ev.Session-1], ev.Peak)
		case serve.EventFinished:
			finished[ev.Session-1] = true
		}
	}
	return peaks, finished
}

// recovered scores a faulty run: the mean per-session fraction of the
// fault-free reference beats of its record (ref, see streamPeaks) that
// the session detected. A record without reference beats counts as
// fully recovered. Sessions that never finished still count their beats.
func (s *Setup) recovered(ref, peaks [][]int) (float64, error) {
	var sum float64
	for sess, got := range peaks {
		want := ref[sess%len(ref)]
		if len(want) == 0 {
			sum++
			continue
		}
		m, err := metrics.MatchPeaks(want, got, core.DefaultPeakTolerance)
		if err != nil {
			return 0, err
		}
		sum += m.Sensitivity()
	}
	return sum / float64(len(peaks)), nil
}

// lossSweep runs base at every point of the loss×policy grid: losses in
// order, DeliveryPolicies within each loss. Point li puts losses[li] on
// base's fault links and seeds the socket client from (base.seed, li).
// Each run goes to row with its recovered detection against ref.
func (s *Setup) lossSweep(base gatewayRun, losses []float64, ref [][]int, row func(r gatewayRun, recovered float64, out *gatewayOut)) error {
	for li, loss := range losses {
		for _, policy := range DeliveryPolicies {
			r := base
			r.loss, r.point, r.policy = loss, li, policy
			r.netSeed = linkSeed(base.seed, li, 0xC7A05)
			out, err := s.runGateway(r)
			if err != nil {
				return err
			}
			peaks, _ := out.beats(r.sessions)
			rec, err := s.recovered(ref, peaks)
			if err != nil {
				return err
			}
			row(r, rec, out)
		}
	}
	return nil
}

// writeLossPivot renders a lossSweep's recovered detection as a
// loss-by-policy pivot, in the style of FormatResilience: point i of n,
// in sweep order, has loss and recovered detection cell(i).
func writeLossPivot(sb *strings.Builder, n int, cell func(i int) (loss, recovered float64)) {
	fmt.Fprintf(sb, "%6s", "loss")
	for _, p := range DeliveryPolicies {
		fmt.Fprintf(sb, " %9s", p)
	}
	sb.WriteString("\n")
	for i := 0; i < n; i += len(DeliveryPolicies) {
		loss, _ := cell(i)
		fmt.Fprintf(sb, "%5.0f%%", 100*loss)
		for j := 0; j < len(DeliveryPolicies); j++ {
			_, rec := cell(i + j)
			fmt.Fprintf(sb, " %8.2f%%", 100*rec)
		}
		sb.WriteString("\n")
	}
}
