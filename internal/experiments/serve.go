package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/xbiosip/xbiosip/internal/metrics"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/serve"
)

// ServeOpts parameterises the multi-patient service scenario.
type ServeOpts struct {
	// Sessions is the number of concurrent patient streams (default 64).
	Sessions int
	// Shards is the gateway shard count (default 1, a single Service).
	Shards int
	// Loss and Burst inject delivery faults on every session's link
	// (packet-loss probability and burst-dropout entry probability); both
	// zero runs fault-free over perfect links.
	Loss  float64
	Burst float64
	// Seed derives the per-session fault-link seeds; the whole scenario
	// is reproducible from it.
	Seed uint64
	// Policy is the gap-concealment policy of every session.
	Policy serve.GapPolicy
	// Net switches the scenario onto a real socket: "tcp" or "udp" runs
	// the gateway behind serve.Listen on Addr (default loopback,
	// ephemeral port) and streams through serve.RunNet instead of the
	// in-process transport loop. Empty keeps the in-process transport.
	Net  string
	Addr string
}

// ServeRow aggregates the sessions of one record in the multi-patient
// service scenario.
type ServeRow struct {
	Record   string
	Sessions int
	Samples  int
	Beats    int
	RefBeats int
	Accuracy float64
}

// ServeResult is the outcome of the multi-patient service scenario:
// per-record session rows plus the service counters and the sustained
// multiplexing throughput.
type ServeResult struct {
	Rows      []ServeRow
	Opts      ServeOpts
	Stats     serve.Stats
	Transport serve.TransportStats
	FS        int
	Elapsed   time.Duration
	// Recovered is the mean per-session fraction of the fault-free
	// reference beats recovered (1.0 whenever the run is fault-free —
	// then it is gated, not measured).
	Recovered float64
	// SamplesPerSec is the sustained processing rate across the gateway;
	// SessionsPerCore is that rate divided by the session sampling rate —
	// how many live patients the configured shards keep up with.
	SamplesPerSec   float64
	SessionsPerCore float64
}

// Serve multiplexes opts.Sessions concurrent patient streams — the
// evaluation records, round-robin — through a serve.Gateway of
// opts.Shards Service shards, using the package's transport loop: each
// record is framed into BLE-sized packets, pushed through a (possibly
// fault-injected) link, ingested with drain-backoff on backpressure, and
// drained live.
//
// Fault-free, every session's detected peaks are required to be
// bit-identical to the reference Pipeline.Stream over its record (the
// gateway invariant), so the reported accuracy is exactly the streaming
// detector's accuracy. Under injected faults the scenario instead
// measures Recovered — how much of the reference detection survives loss
// under the configured gap-concealment policy.
func (s *Setup) Serve(cfg pantompkins.Config, opts ServeOpts) (*ServeResult, error) {
	if opts.Sessions <= 0 {
		opts.Sessions = 64
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if err := checkProbabilities("loss", opts.Loss); err != nil {
		return nil, err
	}
	if err := checkProbabilities("burst", opts.Burst); err != nil {
		return nil, err
	}
	ref, err := s.streamPeaks(cfg)
	if err != nil {
		return nil, err
	}
	// Socket mode runs the same workload over a live listener. Fault-free
	// the lockstep client reproduces the in-process drain schedule, so the
	// bit-identity gate below applies unchanged.
	out, err := s.runGateway(gatewayRun{
		cfg: cfg, sessions: opts.Sessions, shards: opts.Shards, policy: opts.Policy,
		loss: opts.Loss, burst: opts.Burst, seed: opts.Seed,
		network: opts.Net, addr: opts.Addr, netSeed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	fs := s.Records[0].FS
	res := &ServeResult{Opts: opts, Stats: out.stats, Transport: out.client.TransportStats, FS: fs, Elapsed: out.elapsed}
	peaks, finished := out.beats(opts.Sessions)
	if opts.Loss > 0 || opts.Burst > 0 {
		// Sessions whose FlagEnd was lost do not finish; their live beats
		// still count.
		if res.Recovered, err = s.recovered(ref, peaks); err != nil {
			return nil, err
		}
	} else {
		// Bit-identity gate: every session must reproduce its record's
		// reference detection exactly, through any shard count.
		for sess, got := range peaks {
			if !finished[sess] {
				return nil, fmt.Errorf("experiments: session %d did not finish", sess+1)
			}
			want := ref[sess%len(ref)]
			if len(got) != len(want) {
				return nil, fmt.Errorf("experiments: session %d detected %d beats, reference %d",
					sess+1, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					return nil, fmt.Errorf("experiments: session %d peak %d diverged from the reference", sess+1, i)
				}
			}
		}
		res.Recovered = 1.0
	}

	for ri, rec := range s.Records {
		row := ServeRow{Record: rec.Name, Samples: len(rec.Samples), RefBeats: len(rec.Annotations)}
		for sess := ri; sess < opts.Sessions; sess += len(s.Records) {
			row.Sessions++
		}
		if row.Sessions == 0 {
			continue
		}
		row.Beats = len(ref[ri])
		m, err := metrics.MatchPeaks(rec.Annotations, ref[ri], s.Eval.Tolerance)
		if err != nil {
			return nil, err
		}
		row.Accuracy = m.Sensitivity()
		res.Rows = append(res.Rows, row)
	}
	if sec := res.Elapsed.Seconds(); sec > 0 {
		res.SamplesPerSec = float64(res.Stats.Samples) / sec
		res.SessionsPerCore = res.SamplesPerSec / float64(fs)
	}
	return res, nil
}

// FormatServe renders the multi-patient service scenario.
func FormatServe(cfg pantompkins.Config, r *ServeResult) string {
	var sb strings.Builder
	faulty := r.Opts.Loss > 0 || r.Opts.Burst > 0
	fmt.Fprintf(&sb, "Serve workload: %v, %d-shard gateway, framed ingest, per-session block drain, live per-session detection\n",
		cfg, r.Opts.Shards)
	if r.Opts.Net != "" {
		fmt.Fprintf(&sb, "transport: real %s loopback socket (length-delimited frames, NACK-driven backoff)\n", r.Opts.Net)
	}
	if faulty {
		fmt.Fprintf(&sb, "faulty delivery: loss %.2f, burst %.2f, policy %v, seed %d\n",
			r.Opts.Loss, r.Opts.Burst, r.Opts.Policy, r.Opts.Seed)
	}
	fmt.Fprintf(&sb, "%-12s %9s %9s %7s %9s %9s\n", "record", "sessions", "samples", "beats", "reference", "accuracy")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-12s %9d %9d %7d %9d %8.2f%%\n",
			row.Record, row.Sessions, row.Samples, row.Beats, row.RefBeats, 100*row.Accuracy)
	}
	st := r.Stats
	fmt.Fprintf(&sb, "service: %d frames, %d samples, %d connects, %d finishes (%d evictions)\n",
		st.Frames, st.Samples, st.Connects, st.Finishes, st.Evictions)
	fmt.Fprintf(&sb, "delivery: %d dup, %d gaps, %d reordered, %d lost, %d concealed, %d restarts; transport %d frames, %d retries, %d shed\n",
		st.DupFrames, st.GapFrames, st.Reordered, st.LostFrames, st.Concealed, st.GapRestarts,
		r.Transport.Frames, r.Transport.Retries, r.Transport.Shed)
	if faulty {
		fmt.Fprintf(&sb, "recovered detection: %.2f%% of reference beats\n", 100*r.Recovered)
	}
	fmt.Fprintf(&sb, "throughput: %.0f samples/s across %d shard(s) = %.0f live sessions/core at %d Hz (GOMAXPROCS %d)\n",
		r.SamplesPerSec, r.Opts.Shards, r.SessionsPerCore, r.FS, runtime.GOMAXPROCS(0))
	return sb.String()
}
