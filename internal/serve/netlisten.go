package serve

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// The listener is the gateway's real network boundary: it accepts TCP
// connections (length-delimited messages on the stream) and UDP peers
// (one message per datagram) and pumps decoded sample frames into a Sink
// (Service or Gateway). FaultLink+Run remain the deterministic in-process
// test double; the listener carries the same frames over a genuine socket
// with the robustness toolkit a flaky edge deployment needs — read
// deadlines with idle reaping, overload shedding, NACK-driven
// backpressure, panic-isolated handlers, and a graceful, idempotent
// drain-on-close.

// ListenConfig parameterises a Listener.
type ListenConfig struct {
	// Network is "tcp" or "udp" (default "tcp").
	Network string
	// Addr is the listen address (default "127.0.0.1:0", an ephemeral
	// loopback port; Listener.Addr reports what was bound).
	Addr string
	// IdleTimeout reaps sessions that stop talking: a TCP connection
	// whose read deadline lapses is closed, a UDP peer unseen for this
	// long is forgotten (default 30s).
	IdleTimeout time.Duration
	// WriteTimeout bounds every reply write (default 5s); a peer that
	// stops reading its NACKs loses its connection, not the listener.
	WriteTimeout time.Duration
	// MaxConns bounds concurrent transport sessions — TCP connections or
	// tracked UDP peers (default 64). A connection beyond the bound is
	// answered wireBusy and shed.
	MaxConns int
	// MaxFrameRate bounds the sustained ingest rate in frames/sec across
	// the listener (0 = unlimited) via a token bucket of RateBurst
	// capacity. An over-rate frame is shed with a NACK, which drives the
	// client's exponential backoff — load shedding that degrades into
	// ordinary frame loss the gap-concealment policies already handle.
	MaxFrameRate float64
	// RateBurst is the token-bucket capacity (default 32).
	RateBurst int
	// DrainInterval self-pumps the sink on a timer. Zero (the default)
	// drains only on client wireDrainReq messages — the lockstep mode
	// whose drain schedule is bit-identical to the in-process transport.
	DrainInterval time.Duration
	// DrainTimeout bounds the graceful drain Close performs (default 2s).
	DrainTimeout time.Duration
	// OnEvents receives every drain's event batch. It is invoked under
	// the listener's sink lock — batches arrive in drain order and must
	// not call back into the listener.
	OnEvents func([]Event)
	// Now overrides the rate-limiter clock (UnixNano); nil = time.Now.
	Now func() int64
}

// NetStats counts listener activity since construction.
type NetStats struct {
	Accepted   uint64 // transport sessions accepted (TCP conns, UDP peers)
	Active     int    // transport sessions currently live
	Frames     uint64 // data frames ingested into the sink
	Drains     uint64 // sink drains run (requested, timed, and shutdown)
	Nacks      uint64 // frames NACKed back (backpressure, shed, closing)
	Shed       uint64 // overload rejections: connections refused + frames rate-shed
	Timeouts   uint64 // idle sessions reaped by the read deadline
	Reconnects uint64 // sample sessions resumed from a new transport session
	Panics     uint64 // handler panics isolated to their connection
	WireErrors uint64 // corrupt or foreign byte streams torn down
}

// Listener accepts socket transports and feeds their frames to a Sink.
// All sink access — ingest, drains, the graceful close drain — is
// serialized under one lock, honouring the Sink's single-caller
// contract; per-connection reads and replies run concurrently.
type Listener struct {
	cfg  ListenConfig
	sink Sink

	tln net.Listener
	udp *net.UDPConn

	mu       sync.Mutex
	closed   bool
	stats    NetStats
	nextSeq  map[uint32]uint16           // live sample session -> next expected seq
	owner    map[uint32]uint64           // sample session -> transport session id
	conns    map[uint64]*netConn         // live TCP connections
	peers    map[netip.AddrPort]*udpPeer // live UDP peers by remote address
	connID   uint64
	tokens   float64
	lastFill int64
	events   []Event // drain scratch
	endBuf   []byte  // graceful-close FlagEnd scratch

	done chan struct{}
	wg   sync.WaitGroup
}

// netConn is one accepted TCP connection; the write mutex keeps handler
// replies and the shutdown wireBye from interleaving mid-message.
type netConn struct {
	id  uint64
	c   net.Conn
	wmu sync.Mutex
	l   *Listener
}

// udpPeer is one tracked UDP remote; its address is its peers key.
type udpPeer struct {
	id       uint64
	lastSeen time.Time
}

// Listen binds the configured address and starts serving sink. Close
// releases everything.
func Listen(cfg ListenConfig, sink Sink) (*Listener, error) {
	if sink == nil {
		return nil, errors.New("serve: nil sink")
	}
	if cfg.Network == "" {
		cfg.Network = "tcp"
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	if cfg.RateBurst <= 0 {
		cfg.RateBurst = 32
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	l := &Listener{
		cfg:     cfg,
		sink:    sink,
		nextSeq: make(map[uint32]uint16),
		owner:   make(map[uint32]uint64),
		tokens:  float64(cfg.RateBurst),
		done:    make(chan struct{}),
	}
	l.lastFill = cfg.Now()
	switch cfg.Network {
	case "tcp":
		ln, err := net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, err
		}
		l.tln = ln
		l.conns = make(map[uint64]*netConn)
		l.wg.Add(1)
		go l.acceptLoop()
	case "udp":
		addr, err := net.ResolveUDPAddr("udp", cfg.Addr)
		if err != nil {
			return nil, err
		}
		pc, err := net.ListenUDP("udp", addr)
		if err != nil {
			return nil, err
		}
		l.udp = pc
		l.peers = make(map[netip.AddrPort]*udpPeer)
		l.wg.Add(1)
		go l.udpLoop()
	default:
		return nil, fmt.Errorf("serve: unknown network %q (tcp|udp)", cfg.Network)
	}
	if cfg.DrainInterval > 0 {
		l.wg.Add(1)
		go l.drainLoop()
	}
	return l, nil
}

// Addr returns the bound listen address.
func (l *Listener) Addr() net.Addr {
	if l.tln != nil {
		return l.tln.Addr()
	}
	return l.udp.LocalAddr()
}

// Stats returns a snapshot of the listener counters.
func (l *Listener) Stats() NetStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// acceptLoop admits TCP connections until the listener closes, shedding
// beyond MaxConns with a wireBusy.
func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		c, err := l.tln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed || len(l.conns) >= l.cfg.MaxConns {
			l.stats.Shed++
			l.mu.Unlock()
			c.SetWriteDeadline(time.Now().Add(l.cfg.WriteTimeout))
			c.Write(appendWire(nil, wireBusy, nil))
			c.Close()
			continue
		}
		l.connID++
		nc := &netConn{id: l.connID, c: c, l: l}
		l.conns[nc.id] = nc
		l.stats.Accepted++
		l.stats.Active++
		l.wg.Add(1)
		l.mu.Unlock()
		go l.serveConn(nc)
	}
}

// serveConn reads one TCP connection's message stream, reassembling
// messages across segment boundaries, until the peer says bye, goes
// quiet past the idle deadline, or corrupts the stream.
func (l *Listener) serveConn(nc *netConn) {
	defer l.wg.Done()
	defer func() {
		nc.c.Close()
		l.mu.Lock()
		delete(l.conns, nc.id)
		l.stats.Active--
		l.mu.Unlock()
	}()
	var acc []byte
	tmp := make([]byte, 4096)
	for {
		nc.c.SetReadDeadline(time.Now().Add(l.cfg.IdleTimeout))
		n, err := nc.c.Read(tmp)
		if n > 0 {
			acc = append(acc, tmp[:n]...)
		}
		used := 0
		for {
			typ, payload, m, perr := parseWire(acc[used:])
			if perr == ErrTruncated {
				break
			}
			if perr != nil {
				l.countWireError()
				return
			}
			used += m
			if !l.handleMsg(nc.id, nc.reply, typ, payload) {
				return
			}
		}
		acc = acc[:copy(acc, acc[used:])]
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				l.mu.Lock()
				l.stats.Timeouts++
				l.mu.Unlock()
			}
			return
		}
	}
}

// reply writes one full message with the configured write deadline.
func (nc *netConn) reply(msg []byte) error {
	nc.wmu.Lock()
	defer nc.wmu.Unlock()
	nc.c.SetWriteDeadline(time.Now().Add(nc.l.cfg.WriteTimeout))
	_, err := nc.c.Write(msg)
	return err
}

// udpLoop serves the datagram transport: every datagram is one message
// from one peer; peers are tracked for reply routing, shedding and idle
// reaping. Peer addresses are netip.AddrPort values, so reading, keying
// and replying to a datagram allocate nothing for its address.
func (l *Listener) udpLoop() {
	defer l.wg.Done()
	buf := make([]byte, 2048)
	reap := l.cfg.IdleTimeout / 4
	if reap <= 0 || reap > time.Second {
		reap = time.Second
	}
	for {
		l.udp.SetReadDeadline(time.Now().Add(reap))
		n, addr, err := l.udp.ReadFromUDPAddrPort(buf)
		if n > 0 {
			l.handleDatagram(buf[:n], addr)
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if l.reapPeers() {
					return // closed
				}
				continue
			}
			return // socket closed
		}
	}
}

// handleDatagram admits (or sheds) the sending peer and dispatches the
// single message a datagram carries.
func (l *Listener) handleDatagram(b []byte, addr netip.AddrPort) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	p := l.peers[addr]
	if p == nil {
		if len(l.peers) >= l.cfg.MaxConns {
			l.stats.Shed++
			l.mu.Unlock()
			l.udp.WriteToUDPAddrPort(appendWire(nil, wireBusy, nil), addr)
			return
		}
		l.connID++
		p = &udpPeer{id: l.connID}
		l.peers[addr] = p
		l.stats.Accepted++
		l.stats.Active++
	}
	p.lastSeen = time.Now()
	id := p.id
	l.mu.Unlock()

	typ, payload, m, err := parseWire(b)
	if err != nil || m != len(b) {
		l.countWireError()
		return
	}
	reply := func(msg []byte) error {
		_, werr := l.udp.WriteToUDPAddrPort(msg, addr)
		return werr
	}
	if !l.handleMsg(id, reply, typ, payload) {
		l.mu.Lock()
		if q := l.peers[addr]; q != nil && q.id == id {
			delete(l.peers, addr)
			l.stats.Active--
		}
		l.mu.Unlock()
	}
}

// reapPeers forgets UDP peers unseen past the idle deadline; it reports
// whether the listener has closed.
func (l *Listener) reapPeers() bool {
	cut := time.Now().Add(-l.cfg.IdleTimeout)
	l.mu.Lock()
	defer l.mu.Unlock()
	for key, p := range l.peers {
		if p.lastSeen.Before(cut) {
			delete(l.peers, key)
			l.stats.Timeouts++
			l.stats.Active--
		}
	}
	return l.closed
}

// handleMsg dispatches one decoded message. A panic anywhere in the
// handling path — a corrupt frame tripping an invariant, a broken sink —
// is isolated to this transport session: it is counted and the session
// is torn down, while every other connection and the listener itself
// keep serving. It reports whether the transport session should live on.
func (l *Listener) handleMsg(conn uint64, reply func([]byte) error, typ byte, payload []byte) (keep bool) {
	defer func() {
		if r := recover(); r != nil {
			l.mu.Lock()
			l.stats.Panics++
			l.mu.Unlock()
			keep = false
		}
	}()
	switch typ {
	case wireData:
		return l.handleFrame(conn, reply, payload)
	case wireDrainReq:
		buffered := l.drainAndCount()
		return reply(appendDrainedMsg(nil, buffered)) == nil
	case wireBye:
		return false
	default:
		l.countWireError()
		return false
	}
}

// handleFrame ingests one data frame, applying the overload and
// backpressure policies; rejections are NACKed back so the client backs
// off and retransmits.
func (l *Listener) handleFrame(conn uint64, reply func([]byte) error, payload []byte) bool {
	hdr, _, n, err := parseFrame(payload)
	if err != nil || n != len(payload) {
		l.countWireError()
		return false
	}
	nack, fatal := l.ingestFrame(conn, hdr, payload)
	if fatal {
		return false
	}
	if nack != 0 {
		reply(appendNackMsg(nil, hdr.session, hdr.seq, nack))
	}
	return true
}

// ingestFrame is handleFrame's sink-touching half, defer-unlocked so a
// panicking sink releases the listener lock before the recover in
// handleMsg takes it to count the panic. Replies happen in the caller,
// outside the lock.
func (l *Listener) ingestFrame(conn uint64, hdr frameHeader, payload []byte) (nack byte, fatal bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		l.stats.Nacks++
		return nackClosing, false
	}
	if !l.allowLocked() {
		l.stats.Shed++
		l.stats.Nacks++
		return nackShed, false
	}
	if _, err := l.sink.Ingest(payload); err != nil {
		if err == ErrBackpressure {
			l.stats.Nacks++
			return nackBackpressure, false
		}
		l.stats.WireErrors++
		return 0, true
	}
	l.stats.Frames++
	if prev, ok := l.owner[hdr.session]; ok && prev != conn {
		l.stats.Reconnects++
	}
	if hdr.flags&FlagEnd != 0 {
		delete(l.nextSeq, hdr.session)
		delete(l.owner, hdr.session)
	} else {
		l.owner[hdr.session] = conn
		// Track the highest next-expected sequence (wraparound-aware), so
		// a graceful close can end the session exactly in order.
		if cur, ok := l.nextSeq[hdr.session]; !ok || int16(hdr.seq+1-cur) > 0 {
			l.nextSeq[hdr.session] = hdr.seq + 1
		}
	}
	return 0, false
}

// drainAndCount runs one drain and reports the remaining buffered
// samples; defer-unlocked for the same panic-safety as ingestFrame.
func (l *Listener) drainAndCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked()
	return l.sink.Buffered()
}

// allowLocked is the ingest-rate token bucket. Called under mu.
func (l *Listener) allowLocked() bool {
	if l.cfg.MaxFrameRate <= 0 {
		return true
	}
	now := l.cfg.Now()
	if el := now - l.lastFill; el > 0 {
		l.tokens += float64(el) * l.cfg.MaxFrameRate / 1e9
		if max := float64(l.cfg.RateBurst); l.tokens > max {
			l.tokens = max
		}
		l.lastFill = now
	}
	if l.tokens >= 1 {
		l.tokens--
		return true
	}
	return false
}

// drainLocked runs one sink drain and delivers the batch. Called under mu.
func (l *Listener) drainLocked() {
	l.events = l.sink.Drain(l.events[:0])
	l.stats.Drains++
	if l.cfg.OnEvents != nil && len(l.events) > 0 {
		l.cfg.OnEvents(l.events)
	}
}

// drainLoop self-pumps the sink on the configured interval.
func (l *Listener) drainLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.cfg.DrainInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				return
			}
			l.drainLocked()
			l.mu.Unlock()
		case <-l.done:
			return
		}
	}
}

func (l *Listener) countWireError() {
	l.mu.Lock()
	l.stats.WireErrors++
	l.mu.Unlock()
}

// Close shuts the listener down gracefully: it stops accepting, ends
// every live sample session through a synthesized in-order FlagEnd
// frame, drains the sink dry (bounded by DrainTimeout) so end-of-stream
// detections flush through OnEvents, notifies live transports with
// wireBye, closes their sockets and waits for every handler goroutine to
// exit. It is idempotent and safe to call from any goroutine, including
// concurrently with in-flight ingest and drains.
//
// The synthesized FlagEnd frames are ordinary frames to the sink: each
// counts in its Stats as a frame and, once drained, as a finish. A
// session whose own last frame was lost on the way is still live at
// Close, so a lossy run counts more frames and finishes over a socket
// than in process, where nothing ends such a session: `xbiosip -records
// 2 -samples 6000 -seed 3 -loss 0.1 -burst 0.01 -policy hold -gwshards 2
// serve` reads 10354 frames and 57 finishes in process, 10361 and 64
// with -net tcp or -net udp, and the same recovered detection.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.done)
	if l.tln != nil {
		l.tln.Close() // stop accepts; in-flight handlers keep draining below
	}

	// Graceful drain: every sample session the listener has seen frames
	// for ends in sequence, then the sink pumps dry. New frames arriving
	// meanwhile are NACKed nackClosing (see handleFrame).
	deadline := time.Now().Add(l.cfg.DrainTimeout)
	l.mu.Lock()
	for id, seq := range l.nextSeq {
		l.endBuf = AppendFrame(l.endBuf[:0], id, seq, FlagEnd, nil)
		for attempt := 0; ; attempt++ {
			_, err := l.sink.Ingest(l.endBuf)
			if err != ErrBackpressure || attempt >= 8 || !time.Now().Before(deadline) {
				break
			}
			l.drainLocked()
		}
		delete(l.nextSeq, id)
		delete(l.owner, id)
	}
	for l.sink.Buffered() > 0 && time.Now().Before(deadline) {
		l.drainLocked()
	}
	l.drainLocked() // final pass so FlagEnd flushes emit
	var conns []*netConn
	for _, nc := range l.conns {
		conns = append(conns, nc)
	}
	var peerAddrs []netip.AddrPort
	for addr := range l.peers {
		peerAddrs = append(peerAddrs, addr)
	}
	l.mu.Unlock()

	bye := appendWire(nil, wireBye, nil)
	for _, nc := range conns {
		nc.reply(bye) // best effort
		nc.c.Close()
	}
	if l.udp != nil {
		for _, addr := range peerAddrs {
			l.udp.WriteToUDPAddrPort(bye, addr)
		}
		l.udp.Close()
	}
	l.wg.Wait()
	return nil
}
