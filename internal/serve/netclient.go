package serve

import (
	"fmt"
	"net"
	"time"
)

// RunNet is the socket twin of Run: the same framing round loop (rounds)
// over the same sources, but delivery crosses a real TCP or UDP
// connection to a Listener instead of calling Sink.Ingest directly. Each
// round still ends in one lockstep drain request, so under fault-free
// delivery the server's ingest/drain schedule, and therefore its event
// stream, is bit-identical to the in-process transport. On top of that
// it carries the robustness the wire demands: NACKed frames are
// retransmitted under exponential backoff with seeded jitter, dead
// connections are redialed, and seeded chaos (mid-stream disconnects,
// partial writes) can be injected to prove the server side survives.
//
// Which writes are batched: on TCP a round's data messages wait in one
// client buffer and go out in a single write together with the round's
// drain request (the quiesce drains and the final bye flush it the same
// way), so a lockstep round costs one write and one read on each side
// of the socket. The server reads the same messages in the same order,
// only cut into different segments. UDP sends one datagram per message,
// and under PartialWrites every data frame is written at once, in small
// jittered chunks, so neither queues anything.

// NetConfig parameterises a RunNet client.
type NetConfig struct {
	// Network is "tcp" or "udp" (default "tcp").
	Network string
	// Addr is the Listener's address.
	Addr string
	// FrameSamples is the samples per frame (default 24, ≤
	// MaxFrameSamples), as in TransportConfig.
	FrameSamples int
	// MaxRetries bounds per-frame NACK retransmissions and per-message
	// redial attempts (default 8), mirroring TransportConfig.MaxRetries.
	MaxRetries int
	// BackoffBase is the first backoff step (default 200µs). Attempt i
	// sleeps a jittered duration in [d/2, d) for d = min(BackoffBase<<i,
	// BackoffMax); a backpressure NACK additionally pumps the server with
	// 2^i drain requests, the wall-clock analogue of Run's drain-cycle
	// backoff.
	BackoffBase time.Duration
	// BackoffMax caps the backoff step (default 20ms).
	BackoffMax time.Duration
	// SyncTimeout bounds each read while waiting for a drain reply
	// (default 2s); a lost reply is re-requested, a dead connection
	// redialed.
	SyncTimeout time.Duration
	// DialTimeout bounds each dial (default 2s).
	DialTimeout time.Duration
	// Seed drives the jitter and chaos generator; runs with equal seeds
	// and configs make identical draws.
	Seed uint64
	// Disconnect is the chaos knob: the probability, drawn per data
	// frame, that the client tears its connection down mid-stream and
	// redials before sending (default 0, no chaos). Each tear is preceded
	// by one drain round trip on the old connection, so what the server
	// ingests stays a pure function of the seed.
	Disconnect float64
	// PartialWrites (TCP only) writes each data frame at once, in
	// jittered chunks of 1–13 bytes, instead of batching the round's
	// frames into its drain request's write, so the server proves its
	// cross-segment reassembly; it also makes chaos disconnects tear
	// mid-message.
	PartialWrites bool
}

// NetRunStats extends TransportStats with the wire-only counters.
type NetRunStats struct {
	TransportStats
	Nacks      uint64 // NACK frames received
	Reconnects uint64 // redials performed (chaos or error driven)
	Busy       uint64 // wireBusy connection rejections absorbed
	Resyncs    uint64 // drain replies lost and re-requested
	BackoffNs  int64  // total backoff slept
}

// nackInfo is one received NACK awaiting settlement.
type nackInfo struct {
	session uint32
	seq     uint16
	reason  byte
}

// sentFrame is a retransmit-buffer entry: the raw frame bytes and the
// round they were last offered in (entries quietly age out two rounds
// after their last send — by then an unNACKed frame was accepted).
type sentFrame struct {
	buf   []byte
	round uint64
}

type netClient struct {
	cfg    NetConfig
	frameN int
	conn   net.Conn
	rng    uint64
	st     NetRunStats

	acc     []byte // TCP reassembly accumulator
	tmp     []byte // read scratch
	scratch []byte // payload copy returned by readOne
	msg     []byte // outgoing message scratch
	out     []byte // TCP data messages waiting for the next drain request or bye

	sent     map[uint64]sentFrame // retransmit buffer keyed session<<16|seq
	free     [][]byte             // frame buffers of entries gone from sent, for reuse
	attempts map[uint64]int       // per-frame retransmission counts
	pending  []nackInfo           // NACKs awaiting settlement
	round    uint64
	buffered int // server's buffered count from the last drain reply
}

// The client's control messages never change, so they are encoded once.
var (
	drainReqMsg = appendWire(nil, wireDrainReq, nil)
	byeMsg      = appendWire(nil, wireBye, nil)
)

// RunNet executes the transport loop against a Listener at cfg.Addr and
// reports what it did. Events are observed server-side (see
// ListenConfig.OnEvents). It returns ErrServerClosing if the server
// announces shutdown mid-run.
func RunNet(cfg NetConfig, sources []Source) (NetRunStats, error) {
	c, err := newNetClient(cfg)
	if err != nil {
		return NetRunStats{}, err
	}
	conn, err := net.DialTimeout(c.cfg.Network, c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return c.st, err
	}
	return c.run(conn, sources)
}

// newNetClient resolves cfg's defaults into a client ready to run.
func newNetClient(cfg NetConfig) (*netClient, error) {
	if cfg.Network == "" {
		cfg.Network = "tcp"
	}
	frameN, err := frameSamples(cfg.FrameSamples)
	if err != nil {
		return nil, err
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 200 * time.Microsecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 20 * time.Millisecond
	}
	if cfg.SyncTimeout <= 0 {
		cfg.SyncTimeout = 2 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	return &netClient{
		cfg:      cfg,
		frameN:   frameN,
		rng:      cfg.Seed ^ 0xda3e39cb94b95bdb,
		round:    1,
		tmp:      make([]byte, 4096),
		sent:     make(map[uint64]sentFrame),
		attempts: make(map[uint64]int),
	}, nil
}

// run streams sources over conn, a connection to the Listener, and
// closes it (or the last redialed one) before returning.
func (c *netClient) run(conn net.Conn, sources []Source) (NetRunStats, error) {
	c.conn = conn
	defer func() { c.conn.Close() }()

	flushed, err := rounds(sources, c.frameN, &c.st.TransportStats, c.deliver, c.endRound)
	if err != nil {
		return c.st, err
	}
	// Quiesce exactly as Run does: k drains until the server reports an
	// empty buffer, then one final drain so end-of-stream flushes emit.
	// The buffered count piggybacked on each drain reply is Run's
	// sink.Buffered() check; a link flush that delivered frames refreshes
	// it first (faulty runs only — fault-free flushes deliver nothing).
	b := c.buffered
	if flushed > 0 {
		if b, err = c.drainSync(); err != nil {
			return c.st, err
		}
	}
	for b > 0 {
		if b, err = c.drainSync(); err != nil {
			return c.st, err
		}
	}
	if _, err := c.drainSync(); err != nil {
		return c.st, err
	}
	if err := c.settleNacks(); err != nil {
		return c.st, err
	}
	// Straggler NACKs: a frame resent at the very end may be re-NACKed
	// after the final drain. Bounded extra pumps, and only on runs that
	// saw NACKs at all, so the fault-free drain schedule stays exact.
	if c.st.Nacks > 0 {
		for i := 0; i < 4; i++ {
			b, err := c.drainSync()
			if err != nil {
				return c.st, err
			}
			if err := c.settleNacks(); err != nil {
				return c.st, err
			}
			if b == 0 && len(c.pending) == 0 {
				break
			}
		}
	}
	if len(c.out) > 0 {
		// Retransmits the last settlement queued ride with the bye and
		// are resent on a failed write like any data.
		return c.st, c.writeMsg(append(c.out, byeMsg...), false)
	}
	c.conn.SetWriteDeadline(time.Now().Add(c.cfg.SyncTimeout))
	c.conn.Write(byeMsg) // best effort
	return c.st, nil
}

// endRound closes one framing round in lockstep: a drain round trip,
// settlement of the NACKs it brought back, then the retransmit buffer
// ages into the next round. Entries not offered for two rounds leave it:
// their NACK window has passed, so they were accepted.
func (c *netClient) endRound() error {
	if _, err := c.drainSync(); err != nil {
		return err
	}
	if err := c.settleNacks(); err != nil {
		return err
	}
	c.round++
	for key, sf := range c.sent {
		if sf.round+2 <= c.round {
			c.forget(key, sf)
		}
	}
	return nil
}

// forget drops a frame from the retransmit buffer and keeps its byte
// buffer for the next new frame to reuse.
func (c *netClient) forget(key uint64, sf sentFrame) {
	delete(c.sent, key)
	delete(c.attempts, key)
	if sf.buf != nil {
		c.free = append(c.free, sf.buf[:0])
	}
}

// deliver records frame in the retransmit buffer and sends it as a
// wireData message.
func (c *netClient) deliver(frame []byte) error {
	hdr, _, _, err := parseFrame(frame)
	if err != nil {
		return err
	}
	key := uint64(hdr.session)<<16 | uint64(hdr.seq)
	sf, ok := c.sent[key]
	if n := len(c.free); !ok && n > 0 {
		sf.buf, c.free = c.free[n-1], c.free[:n-1]
	}
	sf.buf = append(sf.buf[:0], frame...)
	sf.round = c.round
	c.sent[key] = sf
	return c.send(frame)
}

// send transmits one data frame, applying the chaos knobs: a disconnect
// draw tears the connection down first (mid-message when PartialWrites
// makes that possible), redials and then sends on the fresh connection.
// On TCP without PartialWrites the frame's message only joins c.out,
// which the next drain request, or the bye, writes.
func (c *netClient) send(frame []byte) error {
	c.msg = appendWire(c.msg[:0], wireData, frame)
	if c.cfg.Disconnect > 0 && c.chance(c.cfg.Disconnect) {
		// Settle the old connection first. The server reads each
		// connection on its own goroutine, so frames still queued on the
		// old one could otherwise reach the sink after the fresh
		// connection's, or not at all; one drain round trip proves the
		// server has ingested everything sent before the tear.
		if _, err := c.drainSync(); err != nil {
			return err
		}
		if c.cfg.PartialWrites && c.cfg.Network == "tcp" && len(c.msg) > 1 {
			cut := 1 + int(splitmix64(&c.rng)%uint64(len(c.msg)-1))
			c.conn.Write(c.msg[:cut]) // torn mid-message: the server must discard the partial
		}
		c.conn.Close()
		if err := c.redial(); err != nil {
			return err
		}
	}
	if c.cfg.Network == "tcp" && !c.cfg.PartialWrites {
		c.out = append(c.out, c.msg...)
		return nil
	}
	return c.writeMsg(c.msg, true)
}

// writeMsg writes one full message, or a batch of them, redialing with
// backoff on error; the whole of msg is resent from the start on a fresh
// connection (the server discards a torn prefix with the dead
// connection, and duplicate frames are absorbed by the session's
// acceptance window).
func (c *netClient) writeMsg(msg []byte, data bool) error {
	for attempt := 0; ; attempt++ {
		err := c.writeOnce(msg, data)
		if err == nil {
			return nil
		}
		if attempt >= c.cfg.MaxRetries {
			return err
		}
		c.backoff(attempt)
		if rerr := c.redial(); rerr != nil {
			return rerr
		}
	}
}

// writeOnce performs the raw socket writes for one message; with
// PartialWrites on TCP, data messages go out in small jittered chunks to
// exercise the server's cross-segment reassembly.
func (c *netClient) writeOnce(msg []byte, data bool) error {
	c.conn.SetWriteDeadline(time.Now().Add(c.cfg.SyncTimeout))
	if data && c.cfg.PartialWrites && c.cfg.Network == "tcp" {
		for off := 0; off < len(msg); {
			n := 1 + int(splitmix64(&c.rng)%13)
			if off+n > len(msg) {
				n = len(msg) - off
			}
			if _, err := c.conn.Write(msg[off : off+n]); err != nil {
				return err
			}
			off += n
		}
		return nil
	}
	_, err := c.conn.Write(msg)
	return err
}

// redial replaces the connection, with backoff between attempts.
func (c *netClient) redial() error {
	c.conn.Close()
	c.acc = c.acc[:0] // a half-read message died with the old connection
	var err error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		var conn net.Conn
		conn, err = net.DialTimeout(c.cfg.Network, c.cfg.Addr, c.cfg.DialTimeout)
		if err == nil {
			c.conn = conn
			c.st.Reconnects++
			return nil
		}
		c.backoff(attempt)
	}
	return fmt.Errorf("serve: redial %s %s: %w", c.cfg.Network, c.cfg.Addr, err)
}

// drainSync sends the queued data messages and a drain request in one
// write (on UDP nothing is queued and the request is one datagram) and
// waits for the wireDrained reply, absorbing whatever else arrives
// first: NACKs are queued for settlement, a busy rejection backs off and
// redials, a lost reply is re-requested, a server bye surfaces as
// ErrServerClosing. The batch is kept until the reply: after a redial it
// is resent whole, since it may have died with the connection (a busy
// listener refuses everything on it), while a timed-out reply on a live
// connection re-requests only the drain. Returns the server's post-drain
// buffered count.
func (c *netClient) drainSync() (int, error) {
	c.out = append(c.out, drainReqMsg...)
	if err := c.writeMsg(c.out, false); err != nil {
		return 0, err
	}
	resend := 0
	for {
		typ, payload, err := c.readOne()
		if err != nil {
			if resend >= 3 {
				return 0, err
			}
			c.st.Resyncs++
			resend++
			req := drainReqMsg
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				if rerr := c.redial(); rerr != nil {
					return 0, rerr
				}
				req = c.out
			}
			if werr := c.writeMsg(req, false); werr != nil {
				return 0, werr
			}
			continue
		}
		switch typ {
		case wireDrained:
			b, perr := parseDrainedMsg(payload)
			if perr != nil {
				return 0, perr
			}
			c.st.DrainCalls++
			c.buffered = b
			c.out = c.out[:0]
			return b, nil
		case wireNack:
			c.noteNack(payload)
		case wireBye:
			return 0, ErrServerClosing
		case wireBusy:
			c.st.Busy++
			c.backoff(resend)
			resend++
			if rerr := c.redial(); rerr != nil {
				return 0, rerr
			}
			if werr := c.writeMsg(c.out, false); werr != nil {
				return 0, werr
			}
		default:
			return 0, ErrWire
		}
	}
}

// noteNack queues a received NACK for settlement.
func (c *netClient) noteNack(payload []byte) {
	session, seq, reason, err := parseNackMsg(payload)
	if err != nil {
		return
	}
	c.st.Nacks++
	c.pending = append(c.pending, nackInfo{session: session, seq: seq, reason: reason})
}

// settleNacks works the pending-NACK queue: each named frame still in
// the retransmit buffer is retransmitted after a jittered exponential
// backoff — a backpressure NACK first pumps the server with 2^attempt
// drain requests, Run's drain-cycle backoff made remote — until
// MaxRetries, after which the frame counts as shed (lost on the wire;
// the gap policy downstream conceals it). The drain pumps may queue
// fresh NACKs; the loop runs the queue dry.
func (c *netClient) settleNacks() error {
	for len(c.pending) > 0 {
		nk := c.pending[0]
		c.pending = c.pending[1:]
		key := uint64(nk.session)<<16 | uint64(nk.seq)
		sf, ok := c.sent[key]
		if !ok || nk.reason == nackClosing {
			// Aged out of the retransmit window, or the server is
			// draining for shutdown: lost on the wire.
			c.st.Shed++
			c.forget(key, sf)
			continue
		}
		attempt := c.attempts[key]
		if attempt >= c.cfg.MaxRetries {
			c.st.Shed++
			c.forget(key, sf)
			continue
		}
		c.attempts[key] = attempt + 1
		c.st.Retries++
		c.backoff(attempt)
		if nk.reason == nackBackpressure {
			for d := 0; d < 1<<attempt; d++ {
				if _, err := c.drainSync(); err != nil {
					return err
				}
			}
		}
		sf.round = c.round
		c.sent[key] = sf
		if err := c.send(sf.buf); err != nil {
			return err
		}
	}
	return nil
}

// readOne returns the next incoming message; the payload is valid until
// the next call. TCP reassembles across segment boundaries; UDP expects
// exactly one message per datagram.
func (c *netClient) readOne() (byte, []byte, error) {
	if c.cfg.Network == "udp" {
		c.conn.SetReadDeadline(time.Now().Add(c.cfg.SyncTimeout))
		n, err := c.conn.Read(c.tmp)
		if err != nil {
			return 0, nil, err
		}
		typ, payload, m, perr := parseWire(c.tmp[:n])
		if perr != nil || m != n {
			return 0, nil, ErrWire
		}
		c.scratch = append(c.scratch[:0], payload...)
		return typ, c.scratch, nil
	}
	for {
		typ, payload, m, perr := parseWire(c.acc)
		if perr == nil {
			c.scratch = append(c.scratch[:0], payload...)
			c.acc = c.acc[:copy(c.acc, c.acc[m:])]
			return typ, c.scratch, nil
		}
		if perr != ErrTruncated {
			return 0, nil, perr
		}
		c.conn.SetReadDeadline(time.Now().Add(c.cfg.SyncTimeout))
		n, err := c.conn.Read(c.tmp)
		if n > 0 {
			c.acc = append(c.acc, c.tmp[:n]...)
		}
		if err != nil {
			return 0, nil, err
		}
	}
}

// chance draws true with probability p from the seeded generator.
func (c *netClient) chance(p float64) bool {
	return float64(splitmix64(&c.rng)>>11)/(1<<53) < p
}

// backoff sleeps the jittered exponential step for the given attempt:
// uniform in [d/2, d) for d = min(BackoffBase<<attempt, BackoffMax).
func (c *netClient) backoff(attempt int) {
	if attempt > 20 {
		attempt = 20
	}
	d := c.cfg.BackoffBase << uint(attempt)
	if d <= 0 || d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	half := d / 2
	if half <= 0 {
		half = 1
	}
	sleep := half + time.Duration(splitmix64(&c.rng)%uint64(half))
	time.Sleep(sleep)
	c.st.BackoffNs += int64(sleep)
}
