package serve

import (
	"fmt"
	"time"

	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// GapPolicy selects how a session degrades when frames are lost
// upstream (a sequence gap on an otherwise live session).
type GapPolicy uint8

const (
	// GapDrop is the legacy policy: frames ahead of the expected
	// sequence are dropped and the session waits for the missing frame,
	// so a single lost frame stalls detection until the sequence wraps.
	// It keeps the accepted sample stream gap-free, which is the right
	// trade on a reliable transport where "loss" is only reordering.
	GapDrop GapPolicy = iota
	// GapHold conceals the estimated missing samples by repeating the
	// last accepted sample, then accepts the frame. Detection continues
	// with a flat segment where the signal was lost.
	GapHold
	// GapZero conceals the estimated missing samples with zeros. The
	// HPF sees a step edge at the gap boundaries, which costs more
	// detection accuracy than GapHold under the same loss (see the
	// DeliveryResilience experiment) but marks gaps unmistakably in the
	// archived signal.
	GapZero
	// GapRestart conceals short gaps like GapHold, but a gap of at
	// least Config.GapRestartSamples estimated samples restarts the
	// session's detector in place (buffered samples are discarded, like
	// a FlagStart reconnect): past a long outage the detector's
	// thresholds and RR history describe a signal that no longer
	// exists, and relearning beats extrapolating.
	GapRestart
)

// String names the policy.
func (p GapPolicy) String() string {
	switch p {
	case GapDrop:
		return "drop"
	case GapHold:
		return "hold"
	case GapZero:
		return "zero"
	case GapRestart:
		return "restart"
	default:
		return fmt.Sprintf("GapPolicy(%d)", int(p))
	}
}

// Config parameterises a Service.
type Config struct {
	// FS is the per-session sampling rate in Hz (default 360, the
	// wearable-monitor rate the service is benchmarked at).
	FS int
	// Pipeline is the approximation configuration every session's
	// Pan-Tompkins chain is built with.
	Pipeline pantompkins.Config
	// MaxSessions bounds the session pool (default 1024). A connect
	// beyond the bound evicts the slowest consumer (see Drain).
	MaxSessions int
	// BufferSamples bounds each session's ingest ring (default 2*FS,
	// two seconds of signal). A frame that does not fit is rejected
	// with ErrBackpressure.
	BufferSamples int
	// Quantum caps the samples drained per session per Drain call,
	// interleaving sessions fairly; 0 drains each session fully.
	Quantum int
	// Conceal selects the gap-degradation policy applied when frames
	// are lost upstream (default GapDrop, the legacy wait-for-retry
	// behaviour). See GapPolicy.
	Conceal GapPolicy
	// GapRestartSamples is the estimated-gap length (in samples) at
	// which GapRestart abandons concealment and restarts the detector
	// (default FS, one second of signal). Policies other than
	// GapRestart ignore it.
	GapRestartSamples int
	// TrackLatency stamps every ingested sample and reports
	// sample-to-event latency on emitted events (one extra int64 per
	// buffered sample).
	TrackLatency bool
	// Now overrides the timestamp source (UnixNano); nil selects
	// time.Now. It exists for tests and latency benchmarks.
	Now func() int64
}

// EventKind classifies service output events.
type EventKind uint8

const (
	// EventTrace is a non-beat detector decision (noise, T-wave,
	// misaligned candidate) — the full decision trace Pipeline.Stream
	// exposes, per session.
	EventTrace EventKind = iota
	// EventBeat is an accepted QRS complex (threshold acceptance or RR
	// searchback); Peak carries the R position in raw-signal samples.
	EventBeat
	// EventEvicted reports a session removed by the slow-consumer
	// policy; its buffered samples are discarded.
	EventEvicted
	// EventFinished reports a session that drained to its FlagEnd
	// frame and flushed its detector.
	EventFinished
	// EventGap reports a sequence gap on a session: frames were lost
	// upstream and the concealment policy synthesized Event.Gap samples
	// (or restarted the detector — see Stats.GapRestarts). Clients use
	// it to mark the affected span of the live detection as degraded.
	EventGap
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventTrace:
		return "trace"
	case EventBeat:
		return "beat"
	case EventEvicted:
		return "evicted"
	case EventFinished:
		return "finished"
	case EventGap:
		return "gap"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one unit of service output: a per-session detector decision or
// a session lifecycle change.
type Event struct {
	Session uint32
	Kind    EventKind
	// Det is the underlying detector event (EventTrace and EventBeat).
	// The sequence of Det values emitted for one session is bit-identical
	// to the Events trace of Pipeline.Stream over the same samples.
	Det pantompkins.Event
	// Peak is the accepted R position in raw-signal samples (EventBeat
	// only; -1 otherwise).
	Peak int
	// LatencyNs is the sample-to-event latency of the sample whose push
	// produced this event (Config.TrackLatency only).
	LatencyNs int64
	// Gap is the number of samples the concealment policy synthesized
	// for a lost-frame gap (EventGap only; 0 otherwise). A GapRestart
	// episode reports the estimated gap length it skipped instead.
	Gap int
}

// Stats counts service activity since construction.
type Stats struct {
	Frames       uint64 // frames accepted
	Samples      uint64 // samples accepted
	Connects     uint64 // sessions opened (implicit or FlagStart)
	Reconnects   uint64 // FlagStart on a live session
	Evictions    uint64 // sessions removed by the slow-consumer policy
	Finishes     uint64 // sessions completed via FlagEnd
	DupFrames    uint64 // duplicate frames dropped (sequence already accepted)
	GapFrames    uint64 // gap episodes: frames that arrived ahead of sequence
	Reordered    uint64 // late frames whose slot was already concealed past
	LostFrames   uint64 // frames estimated lost upstream (sum of gap widths)
	Concealed    uint64 // samples synthesized by the concealment policy
	GapRestarts  uint64 // detector restarts forced by over-threshold gaps
	Truncated    uint64 // ingest buffers rejected mid-frame
	Backpressure uint64 // frames rejected by a full session buffer
}

// Health is the degraded-state report of one live session: how much of
// its accepted signal is synthetic and how often its detector was
// restarted by the gap policy.
type Health struct {
	Gaps      uint32 // gap episodes concealed or restarted over
	Concealed uint64 // samples synthesized for this occupant
	Restarts  uint32 // gap-forced detector restarts
}

// Service multiplexes many concurrent patient sessions over streaming
// Pan-Tompkins detection. Per-session state lives in parallel arrays
// indexed by slot (a struct-of-arrays pool) — there are no per-session
// goroutines and no per-session heap churn: a slot's stage state,
// detector rings and buffer region are built once and recycled across
// occupants, and every slot's stream runs over the one compiled pipeline
// the Service holds.
//
// A Service is single-goroutine by design (calls must not be concurrent);
// a multi-core deployment runs one Service shard per core, which is how
// the sessions/core benchmark scales.
type Service struct {
	cfg  Config
	bufN int // ring capacity per session

	// Session pool, struct-of-arrays, indexed by slot.
	ids      []uint32              // occupant session id
	used     []bool                // slot occupied
	seqs     []uint16              // next expected frame sequence
	seen     []uint64              // acceptance bitmap of the last 64 sequences
	lastS    []int16               // last accepted sample (hold-last concealment)
	health   []Health              // per-occupant degraded-state counters
	ended    []bool                // FlagEnd received; finish after drain
	heads    []int32               // ring read position
	counts   []int32               // buffered samples
	ticks    []int64               // last accepted-frame order stamp
	streams  []*pantompkins.Stream // streams of pipe, built lazily, reused via Restart
	emEvents []int32               // detector events already emitted
	emPeaks  []int32               // detector peaks already emitted
	ring     []int16               // slot i owns ring[i*bufN:(i+1)*bufN]
	ts       []int64               // ingest stamps (TrackLatency only)

	index   map[uint32]int32 // session id -> slot
	free    []int32          // free-slot stack
	pending []Event          // lifecycle events raised during Ingest
	stats   Stats
	nowFn   func() int64
	tick    int64 // monotone accepted-frame counter (eviction ordering)

	pipe *pantompkins.Pipeline // the compiled stages every slot's stream shares
	out  pantompkins.Outputs   // Drain's per-block signals and stage scratch
	wrap []int16               // contiguous copy of a ring span that wraps
}

// New builds a service. The pipeline configuration is compiled here, once;
// per-slot streams over it are instantiated on first use.
func New(cfg Config) (*Service, error) {
	if cfg.FS <= 0 {
		cfg.FS = 360
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	if cfg.BufferSamples <= 0 {
		cfg.BufferSamples = 2 * cfg.FS
	}
	if cfg.GapRestartSamples <= 0 {
		cfg.GapRestartSamples = cfg.FS
	}
	if cfg.Conceal > GapRestart {
		return nil, fmt.Errorf("serve: unknown gap policy %v", cfg.Conceal)
	}
	pipe, err := pantompkins.New(cfg.Pipeline)
	if err != nil {
		return nil, err
	}
	n := cfg.MaxSessions
	s := &Service{
		cfg:      cfg,
		pipe:     pipe,
		bufN:     cfg.BufferSamples,
		ids:      make([]uint32, n),
		used:     make([]bool, n),
		seqs:     make([]uint16, n),
		seen:     make([]uint64, n),
		lastS:    make([]int16, n),
		health:   make([]Health, n),
		ended:    make([]bool, n),
		heads:    make([]int32, n),
		counts:   make([]int32, n),
		ticks:    make([]int64, n),
		streams:  make([]*pantompkins.Stream, n),
		emEvents: make([]int32, n),
		emPeaks:  make([]int32, n),
		ring:     make([]int16, n*cfg.BufferSamples),
		index:    make(map[uint32]int32, n),
		free:     make([]int32, 0, n),
		nowFn:    cfg.Now,
	}
	if cfg.TrackLatency {
		s.ts = make([]int64, n*cfg.BufferSamples)
	}
	if s.nowFn == nil {
		s.nowFn = func() int64 { return time.Now().UnixNano() }
	}
	for slot := n - 1; slot >= 0; slot-- {
		s.free = append(s.free, int32(slot))
	}
	return s, nil
}

// Sessions returns the number of live sessions.
func (s *Service) Sessions() int { return len(s.index) }

// Stats returns the activity counters.
func (s *Service) Stats() Stats { return s.stats }

// Buffered returns the total samples queued across all live sessions.
func (s *Service) Buffered() int {
	total := 0
	for slot, u := range s.used {
		if u {
			total += int(s.counts[slot])
		}
	}
	return total
}

// Backlog returns the buffered sample count of a live session.
func (s *Service) Backlog(session uint32) (int, bool) {
	slot, ok := s.index[session]
	if !ok {
		return 0, false
	}
	return int(s.counts[slot]), true
}

// SessionHealth returns a live session's degraded-state report: the gap
// episodes, concealed samples and gap-forced detector restarts of the
// current occupant (FlagStart reconnects clear it).
func (s *Service) SessionHealth(session uint32) (Health, bool) {
	slot, ok := s.index[session]
	if !ok {
		return Health{}, false
	}
	return s.health[slot], true
}

// Detection exposes a live session's decisions not yet emitted through
// Drain (each Drain delivers and then discards the emitted prefix, so
// detector memory stays bounded). The result aliases detector state: it
// is valid until the session is drained further, restarted or closed,
// and must not be mutated.
func (s *Service) Detection(session uint32) (*pantompkins.Detection, bool) {
	slot, ok := s.index[session]
	if !ok {
		return nil, false
	}
	return s.streams[slot].Detector().Detection(), true
}

// Ingest consumes the frames packed back-to-back in buf (the shape of a
// radio link delivering a batch of notifications) and returns the number
// of frames consumed. Unknown session ids connect implicitly, evicting
// the slowest consumer if the pool is full; FlagStart on a live session
// restarts it in place. Duplicate- and future-sequence frames are dropped
// (counted in Stats) without disturbing the session, so the detection a
// session emits is always over exactly the in-order accepted samples. A
// frame that does not fit the session's bounded buffer stops ingest with
// ErrBackpressure and is not consumed: the caller should Drain and
// re-offer the remainder of buf. A buffer ending mid-frame is
// ErrTruncated.
func (s *Service) Ingest(buf []byte) (int, error) {
	frames := 0
	for len(buf) > 0 {
		hdr, payload, n, err := parseFrame(buf)
		if err != nil {
			s.stats.Truncated++
			return frames, err
		}
		if err := s.ingestFrame(hdr, payload); err != nil {
			return frames, err
		}
		buf = buf[n:]
		frames++
	}
	return frames, nil
}

// ingestFrame applies one parsed frame.
func (s *Service) ingestFrame(hdr frameHeader, payload []byte) error {
	slot, ok := s.index[hdr.session]
	if !ok {
		slot = s.connect(hdr.session, hdr.seq)
	} else if hdr.flags&FlagStart != 0 {
		s.restart(slot, hdr.seq)
	}
	conceal, gap, restart := 0, 0, false
	if hdr.seq != s.seqs[slot] {
		// Sequence-window comparison under uint16 wraparound: behind the
		// expected number is a duplicate or a reordered copy arriving
		// late, ahead means frames were lost upstream.
		d := int16(hdr.seq - s.seqs[slot])
		if d < 0 {
			// The acceptance bitmap distinguishes a true duplicate (its
			// sequence was accepted) from a reordered frame whose slot
			// the concealment policy already synthesized past. Under
			// GapDrop nothing is ever concealed, so every behind-frame
			// counts as a duplicate, exactly the legacy accounting.
			dist := uint16(-d)
			if s.cfg.Conceal == GapDrop || dist > 64 || s.seen[slot]>>(dist-1)&1 == 1 {
				s.stats.DupFrames++
			} else {
				s.stats.Reordered++
			}
			return nil
		}
		if s.cfg.Conceal == GapDrop {
			// Legacy: wait for the missing frame (or a wrap) instead of
			// degrading. The accepted stream stays gap-free in order.
			s.stats.GapFrames++
			return nil
		}
		// Estimate the missing span from the gap width and this frame's
		// sample count (links run fixed-size frames in the steady
		// state), clamped so the frame can always fit an empty buffer —
		// otherwise a huge gap would backpressure forever.
		gap = int(d)
		conceal = gap * hdr.count
		if max := s.bufN - hdr.count; conceal > max {
			conceal = max
		}
		restart = s.cfg.Conceal == GapRestart && gap*hdr.count >= s.cfg.GapRestartSamples
		if restart {
			conceal = 0
		}
	}
	// Nothing below this check mutates state: a rejected frame is
	// re-offered verbatim after a drain, and its gap must account once.
	// A gap-restart discards the backlog, so only the frame itself must
	// fit.
	have := int(s.counts[slot]) + conceal
	if restart {
		have = 0
	}
	if have+hdr.count > s.bufN {
		s.stats.Backpressure++
		return ErrBackpressure
	}
	if gap > 0 {
		s.stats.GapFrames++
		s.stats.LostFrames += uint64(gap)
		if restart {
			// Past the threshold the detector's adaptive state describes
			// a signal that is gone: restart in place (discarding the
			// pre-gap backlog, like a FlagStart reconnect) and relearn.
			s.pending = append(s.pending, Event{Session: hdr.session, Kind: EventGap, Peak: -1, Gap: gap * hdr.count})
			s.reset(slot, hdr.seq)
			s.health[slot].Gaps++
			s.health[slot].Restarts++
			s.stats.GapRestarts++
		} else {
			s.pending = append(s.pending, Event{Session: hdr.session, Kind: EventGap, Peak: -1, Gap: conceal})
			s.health[slot].Gaps++
		}
	}
	base := slot * int32(s.bufN)
	var now int64
	if s.cfg.TrackLatency {
		now = s.nowFn()
	}
	if conceal > 0 {
		fill := s.lastS[slot]
		if s.cfg.Conceal == GapZero {
			fill = 0
		}
		for i := 0; i < conceal; i++ {
			idx := base + (s.heads[slot]+s.counts[slot])%int32(s.bufN)
			s.ring[idx] = fill
			if s.cfg.TrackLatency {
				s.ts[idx] = now
			}
			s.counts[slot]++
		}
		s.health[slot].Concealed += uint64(conceal)
		s.stats.Concealed += uint64(conceal)
	}
	// Mark any skipped sequences unseen so their frames, should they
	// straggle in after all, are counted Reordered rather than accepted
	// out of order. (After a gap-restart the bitmap is already clear.)
	if gap > 0 {
		s.shiftSeen(slot, gap)
	}
	s.seqs[slot] = hdr.seq + 1
	s.shiftSeen(slot, 1)
	s.seen[slot] |= 1
	for i := 0; i < hdr.count; i++ {
		idx := base + (s.heads[slot]+s.counts[slot])%int32(s.bufN)
		s.ring[idx] = sampleAt(payload, i)
		if s.cfg.TrackLatency {
			s.ts[idx] = now
		}
		s.counts[slot]++
	}
	if hdr.count > 0 {
		s.lastS[slot] = sampleAt(payload, hdr.count-1)
	}
	if hdr.flags&FlagEnd != 0 {
		s.ended[slot] = true
	}
	s.tick++
	s.ticks[slot] = s.tick
	s.stats.Frames++
	s.stats.Samples += uint64(hdr.count)
	return nil
}

// shiftSeen advances a slot's acceptance bitmap by n sequence positions,
// shifting unaccepted zero bits in.
func (s *Service) shiftSeen(slot int32, n int) {
	if n >= 64 {
		s.seen[slot] = 0
		return
	}
	s.seen[slot] <<= uint(n)
}

// connect claims a slot for a new session, evicting the slowest consumer
// when the pool is full.
func (s *Service) connect(id uint32, seq uint16) int32 {
	if len(s.free) == 0 {
		s.evict(s.victim())
	}
	slot := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.ids[slot] = id
	s.used[slot] = true
	s.index[id] = slot
	s.health[slot] = Health{}
	s.reset(slot, seq)
	s.stats.Connects++
	return slot
}

// restart re-arms a live session in place (FlagStart mid-record):
// buffered samples are discarded and detection begins anew at the given
// sequence number, exactly as if the session had reconnected.
func (s *Service) restart(slot int32, seq uint16) {
	s.health[slot] = Health{}
	s.reset(slot, seq)
	s.stats.Reconnects++
}

// reset clears a slot's per-occupant detection state and (re)starts its
// stream. Health counters survive: a gap-forced restart (GapRestart)
// resets through here while the occupant's degraded-state history keeps
// accumulating; connect and FlagStart clear them explicitly.
func (s *Service) reset(slot int32, seq uint16) {
	s.seqs[slot] = seq
	s.seen[slot] = 0
	s.lastS[slot] = 0
	s.ended[slot] = false
	s.heads[slot] = 0
	s.counts[slot] = 0
	s.emEvents[slot] = 0
	s.emPeaks[slot] = 0
	s.tick++
	s.ticks[slot] = s.tick
	if s.streams[slot] == nil {
		s.streams[slot] = s.pipe.Stream(s.cfg.FS)
	} else {
		s.streams[slot].Restart()
	}
}

// victim picks the slot to evict: the largest backlog (the slowest
// consumer), ties broken by least-recent activity, then lowest slot —
// a total order, so eviction under pressure is deterministic.
func (s *Service) victim() int32 {
	best := int32(-1)
	for slot := range s.used {
		if !s.used[slot] {
			continue
		}
		if best < 0 ||
			s.counts[slot] > s.counts[best] ||
			(s.counts[slot] == s.counts[best] && s.ticks[slot] < s.ticks[best]) {
			best = int32(slot)
		}
	}
	return best
}

// evict force-closes a session, discarding its buffered samples, and
// queues the EventEvicted for the next Drain.
func (s *Service) evict(slot int32) {
	s.pending = append(s.pending, Event{Session: s.ids[slot], Kind: EventEvicted, Peak: -1})
	s.stats.Evictions++
	s.close(slot)
}

// close releases a slot back to the pool.
func (s *Service) close(slot int32) {
	delete(s.index, s.ids[slot])
	s.used[slot] = false
	s.free = append(s.free, slot)
}

// Drain advances every live session — up to Quantum samples each — through
// its pipeline and detector, appending the produced events to events (in
// ascending slot order; a reused buffer makes the steady state
// allocation-free). Sessions whose FlagEnd frame has fully drained are
// flushed, emit EventFinished and release their slot. Pending eviction
// events from Ingest are delivered first.
//
// Each session's block runs through its stages in one
// pantompkins.Pipeline.PushBlock call — a direct view of its ingest ring
// (copied only when the span wraps) into one Service-owned Outputs — and
// the block's filtered/integrated outputs then feed the session's own
// incremental detector sample by sample, so the emitted event sequence
// per session is bit-identical to pushing every sample through
// Stream.Push one at a time. Each surviving session's already-emitted
// decision prefix is discarded after collection, so detector memory stays
// bounded over unbounded streams.
func (s *Service) Drain(events []Event) []Event {
	events = append(events, s.pending...)
	s.pending = s.pending[:0]
	var now int64
	if s.cfg.TrackLatency {
		now = s.nowFn()
	}
	for sl := range s.used {
		if !s.used[sl] {
			continue
		}
		slot := int32(sl)
		n := int(s.counts[slot])
		if q := s.cfg.Quantum; q > 0 && n > q {
			n = q
		}
		base := int(slot) * s.bufN
		head := int(s.heads[slot])
		block := s.ring[base+head : base+min(head+n, s.bufN)]
		if head+n > s.bufN {
			s.wrap = append(append(s.wrap[:0], block...), s.ring[base:base+head+n-s.bufN]...)
			block = s.wrap
		}
		st := s.streams[slot]
		st.Pipeline().PushBlock(&s.out, block)
		sd := st.Detector()
		det := sd.Detection()
		for k := 0; k < n; k++ {
			sd.Push(s.out.Filtered[k], s.out.Integrated[k])
			if len(det.Events) > int(s.emEvents[slot]) {
				var lat int64
				if s.cfg.TrackLatency {
					lat = now - s.ts[base+(head+k)%s.bufN]
				}
				events = s.collect(slot, det, lat, events)
			}
		}
		s.heads[slot] = int32((head + n) % s.bufN)
		s.counts[slot] -= int32(n)
		if s.ended[slot] && s.counts[slot] == 0 {
			fin := st.Finish()
			events = s.collect(slot, fin, 0, events)
			events = append(events, Event{Session: s.ids[slot], Kind: EventFinished, Peak: -1})
			s.stats.Finishes++
			s.close(slot)
		} else {
			s.trim(slot)
		}
	}
	return events
}

// trim discards a live slot's already-emitted decision prefix (the
// detector only appends — see StreamDetector.Discard), so a session
// streaming indefinitely holds a bounded trace instead of an
// ever-growing one.
func (s *Service) trim(slot int32) {
	if e := int(s.emEvents[slot]); e > 0 {
		s.streams[slot].Detector().Discard(e, int(s.emPeaks[slot]))
		s.emEvents[slot] = 0
		s.emPeaks[slot] = 0
	}
}

// collect emits the detector events produced since the last collection.
func (s *Service) collect(slot int32, det *pantompkins.Detection, lat int64, events []Event) []Event {
	for int(s.emEvents[slot]) < len(det.Events) {
		de := det.Events[s.emEvents[slot]]
		s.emEvents[slot]++
		ev := Event{Session: s.ids[slot], Kind: EventTrace, Det: de, Peak: -1, LatencyNs: lat}
		if de.Kind == pantompkins.EventAccepted || de.Kind == pantompkins.EventSearchback {
			ev.Kind = EventBeat
			ev.Peak = det.Peaks[s.emPeaks[slot]]
			s.emPeaks[slot]++
		}
		events = append(events, ev)
	}
	return events
}
