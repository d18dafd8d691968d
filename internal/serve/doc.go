// Package serve multiplexes tens of thousands of concurrent patient
// streaming sessions per core over the streaming Pan-Tompkins pipeline —
// the deployment shape of XBioSiP's near-sensor processing: many wearable
// acquisition nodes feeding one edge gateway that runs QRS detection live
// for every patient, over radio links that lose, duplicate and reorder
// packets.
//
// The package is layered like the deployment it models:
//
//   - Service — one single-goroutine session pool (one core's worth).
//   - Gateway — N Service shards behind one ingest/drain front door,
//     with a deterministic merged event stream.
//   - FaultLink + Run — the client/radio side: framing, fault injection
//     and the retry-with-backoff delivery loop, all wall-clock-free.
//   - Listener + RunNet — the same two roles over real TCP/UDP sockets:
//     Listener accepts wire-framed connections into any Sink, RunNet
//     drives Run's framing round loop through a Dial-ed connection.
//     FaultLink is the in-process test double of this wire: fault-free,
//     the socket path must emit the bit-identical event stream (the
//     TransportResilience identity gate), so everything proven about
//     links, gaps and policies transfers to the real transport.
//
// # Session pool
//
// Per-session state lives in a struct-of-arrays pool indexed by slot:
// parallel arrays for sequence tracking, ring positions and emit cursors,
// one contiguous int16 ring region per slot, and one lazily built stream
// per slot — stage state plus detector — that is recycled across
// occupants via Stream.Restart. The Service compiles its pipeline once,
// in New, and every slot's stream runs over those shared compiled stages,
// so a session costs only its state. There are no per-session goroutines
// and no steady-state allocation; a Service is single-goroutine and a
// multi-core deployment runs one Service shard per core — which is
// exactly what Gateway does.
//
// # Framing
//
// Ingest accepts frames modeled on BLE wearable links (see frame.go): an
// 8-byte header — session id, wrapping sequence number, sample count,
// flags — followed by up to MaxFrameSamples little-endian int16 samples,
// packed back-to-back per ingest buffer. SplitFrames chunks an arbitrary
// sample slice into such frames (SplitFramesN with a validated per-frame
// size). Unknown sessions connect implicitly; FlagStart restarts a live
// session in place (reconnect); FlagEnd finishes it once its buffer
// drains.
//
// On a socket, each frame travels inside a wire envelope (see
// netwire.go): a little-endian uint16 length, a message type byte, and
// the payload — the same encoding reassembled from a TCP byte stream or
// taken one message per UDP datagram. Data frames flow client to server;
// the server answers with drain acknowledgements and, when it cannot
// accept a frame, a NACK naming the (session, seq) and a reason:
// backpressure (the session ring is full — drain and resend), shed (the
// listener's connection or ingest-rate limit fired), or closing (the
// listener is draining for shutdown). The client contract mirrors Run's
// in-process backpressure loop: hold the NACKed frame in a retransmit
// buffer, back off exponentially with seeded jitter (NetConfig.
// BackoffBase doubling up to BackoffMax), pump extra drain rounds for
// backpressure, and resend — giving up after NetConfig.MaxRetries, at
// which point the frame counts as shed and the session's gap policy
// conceals it like any other loss.
//
// # Gap degradation
//
// A sequence gap means frames were lost upstream. Config.Conceal selects
// how the session degrades:
//
//   - GapDrop (default, the legacy behaviour) drops ahead-of-sequence
//     frames and waits for the missing one, keeping the accepted stream
//     gap-free: under fault-free delivery the detection a session emits is
//     bit-identical to pantompkins.Pipeline.Stream over the same samples.
//   - GapHold conceals the estimated missing span by repeating the last
//     accepted sample; detection continues over a flat segment. The
//     cheapest concealment and the most accurate under moderate loss (see
//     the DeliveryResilience experiment).
//   - GapZero conceals with zeros. The high-pass stage sees a step edge
//     at both gap boundaries, which costs more detection accuracy than
//     GapHold but marks gaps unmistakably in the archived signal.
//   - GapRestart conceals short gaps like GapHold, but a gap of at least
//     Config.GapRestartSamples restarts the session's detector in place:
//     past a long outage the detector's thresholds and RR history
//     describe a signal that no longer exists, and relearning beats
//     extrapolating.
//
// Every gap emits an EventGap with the synthesized span, counts into
// Stats (GapFrames, LostFrames, Concealed, GapRestarts) and into the
// per-occupant Health report SessionHealth exposes, so a client can mark
// exactly which stretches of a live detection are degraded. A per-slot
// acceptance bitmap distinguishes true duplicates from reordered frames
// that straggle in after their slot was concealed past.
//
// # Backpressure and eviction
//
// Each session owns a bounded ring (Config.BufferSamples). A frame that
// does not fit is rejected with ErrBackpressure and not consumed — the
// transport's cue to Drain and retry; Run implements that contract with
// exponential drain-backoff. When a new session connects into a full
// pool, the slowest consumer — largest backlog, ties to the
// least-recently active, then lowest slot — is evicted deterministically,
// its buffered samples discarded, and an EventEvicted emitted on the next
// Drain. Drain advances every live session up to Config.Quantum samples
// and appends live detection events (the full decision trace plus
// accepted beats, optionally with sample-to-event latency) to a reusable
// buffer.
//
// # Block drain
//
// Drain advances each live session with buffered samples by one block: a
// direct view into its ingest ring (copied only when the span wraps) goes
// through pantompkins.Pipeline.PushBlock on the session's own stage
// state, into one Service-owned Outputs that every session reuses. Each
// FIR stage packs its last inputs ahead of the block and evaluates only
// the block's positions through the design's one compiled chain (see
// package arith/kernel, "Continuation by start index"). The block's
// filtered/integrated outputs then feed the session's detector sample by
// sample, in ascending slot order, with unchanged event order and latency
// attribution, so the drained event stream is bit-identical to pushing
// every sample through Stream.Push one at a time — the per-sample oracle
// the drain is tested against. Drain also trims each session's
// already-emitted detection history (StreamDetector.Discard), so an
// endless session's retained trace stays bounded by the drain cadence
// instead of growing with the stream; the detector's own state (a fixed
// sample window and one searchback candidate) does not grow at all.
//
// # Sharded gateway
//
// Gateway hashes each session id onto one of N Service shards and drains
// all shards on per-shard worker goroutines, then merges the event
// batches into a canonical order keyed by admission rank — the slot a
// single unsharded Service would have assigned, including slot reuse.
// The merged stream is therefore bit-identical for every shard count,
// and, under fault-free delivery, bit-identical to one unsharded Service
// fed the same frames; TestGatewayBitIdentity pins this for shard counts
// {1, 2, 4, 8}.
//
// # Fault injection
//
// FaultLink is a deterministic lossy-link model for the wire between
// SplitFrames and Ingest: seeded splitmix64 draws decide packet loss,
// burst dropout, duplication and bounded reordering, so every delivery
// schedule — and every downstream event stream — is reproducible from
// FaultConfig.Seed. Run drives whole sessions through such links and a
// Sink (Service or Gateway), measured in drain cycles rather than wall
// clock, which is what makes the DeliveryResilience experiment exact.
//
// # Socket transport
//
// Listen puts any Sink behind a real listener. TCP connections carry
// length-delimited wire messages with per-connection read/write
// deadlines; sessions idle past ListenConfig.IdleTimeout are reaped (on
// UDP, per-peer state ages out the same way). The listener sheds load at
// two gates — a connection cap (MaxConns, rejected with a busy notice
// the client absorbs with backoff-and-redial) and a token-bucket ingest
// rate (MaxFrameRate, rejected per frame with a shed NACK) — and
// isolates per-connection handler panics so one poisoned stream cannot
// take the listener down. All sink access is serialized on one mutex, so
// a Service behind a Listener needs no locking of its own, and drained
// events reach ListenConfig.OnEvents in canonical order. Close is
// idempotent and graceful: it stops accepting, synthesizes FlagEnd for
// every session still tracked on the wire, drains the sink until quiet
// (bounded by DrainTimeout), notifies connected clients, and waits for
// every handler goroutine to exit — tests assert zero goroutine and
// socket leaks afterwards.
//
// RunNet is the client. Run and RunNet share one framing round loop:
// every round frames one packet per unexhausted source, pushes it
// through the source's link and delivers what survives, then closes the
// round; after the last round the links are flushed through the same
// delivery. Run delivers by Sink.Ingest with drain-backoff and closes
// each round with a drain. RunNet delivers over a dialed connection and
// closes each round in lockstep: a drain request the server answers with
// its buffered count, settlement of the NACKs that came back, and aging
// of its retransmit buffer. Its quiesce reads that count in place of
// Sink.Buffered. So under fault-free delivery the server observes the
// identical ingest/drain schedule as the in-process loop, which is what
// makes the socket and FaultLink interchangeable as test doubles.
// NetConfig.Disconnect and PartialWrites add seeded transport chaos
// (mid-write connection tears, fragmented TCP writes) for the
// TransportResilience experiment; the retransmit buffer plus the session
// acceptance bitmap absorb the resulting duplicates. Before each tear the
// client drains once over the old connection, so frames sent before it
// are always ingested before those sent after, and a chaos run is a pure
// function of its seed.
package serve
