// Lossy gateway: the streaming monitor under realistic radio conditions,
// first in-process and then behind a real socket. Three wearables stream
// the same records through a 2-shard serve.Gateway with hold-last
// concealment, which synthesizes the missing spans so detection keeps
// running; EventGap marks the degraded stretches.
//
// In the first part every packet crosses a seeded fault link that loses,
// duplicates, reorders and burst-drops frames, and the wall-clock-free
// transport loop (serve.Run) frames, retries on backpressure and drains.
// In the second part a serve.Listener accepts length-delimited frames on
// loopback TCP and NACKs what it must shed, and serve.RunNet streams the
// wearables through it with seeded chaos: 2% of frames tear the
// connection down mid-write and the client redials with exponential
// backoff, while a 3% lossy fault link drops packets before they reach
// the wire. Re-running with the same seed reproduces every fault and
// every event; the same socket code runs over "udp" by changing one
// string.
package main

import (
	"fmt"
	"log"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/serve"
)

const (
	patients = 3
	samples  = 6000 // 30 s per patient
	seed     = 2026
)

// tally counts each session's detected beats and concealed samples.
type tally struct {
	beats, concealed [patients + 1]int
}

func (t *tally) onEvents(events []serve.Event) {
	for _, ev := range events {
		switch ev.Kind {
		case serve.EventBeat:
			t.beats[ev.Session]++
		case serve.EventGap:
			t.concealed[ev.Session] += ev.Gap
		}
	}
}

func main() {
	// The deployed design: the paper's B9.
	var b9 pantompkins.Config
	for i, st := range pantompkins.Stages {
		k := []int{10, 12, 2, 8, 16}[i]
		b9.Stage[st] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	}

	recs := make([]*ecg.Record, patients)
	for i := range recs {
		rec, err := ecg.NSRDBRecord(i, samples)
		if err != nil {
			log.Fatal(err)
		}
		recs[i] = rec
	}

	// Reference: the same records through dedicated fault-free streams.
	pipe, err := pantompkins.New(b9)
	if err != nil {
		log.Fatal(err)
	}
	ref := make([]int, patients)
	for id, rec := range recs {
		stream := pipe.Stream(rec.FS)
		for _, x := range rec.Samples {
			stream.Push(x)
		}
		ref[id] = len(stream.Finish().Peaks)
	}

	// A sharded gateway with hold-last concealment: one Service per core
	// in a real deployment, two here to show the merged stream. Each part
	// gets a fresh one, so its counters cover that part alone.
	newGateway := func() *serve.Gateway {
		gw, err := serve.NewGateway(serve.GatewayConfig{
			Shards: 2,
			Service: serve.Config{
				FS: recs[0].FS, Pipeline: b9, MaxSessions: 2 * patients,
				Conceal: serve.GapHold,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		return gw
	}
	// One fault link per wearable, all derived from one seed.
	sources := func(link serve.FaultConfig) []serve.Source {
		srcs := make([]serve.Source, patients)
		for id := range srcs {
			link.Seed = seed + uint64(id)
			srcs[id] = serve.Source{
				Session: uint32(id + 1),
				Samples: recs[id].Samples,
				Link:    serve.NewFaultLink(link),
			}
		}
		return srcs
	}

	// Part 1, in-process: 3% uniform loss, 1% duplicates, 2% reordering
	// and occasional burst dropouts.
	gw := newGateway()
	var lossy tally
	tst, err := serve.Run(gw, serve.TransportConfig{FrameSamples: 24}, sources(serve.FaultConfig{
		Loss: 0.03, Dup: 0.01, Reorder: 0.02, Burst: 0.005, BurstLen: 6,
	}), lossy.onEvents)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lossy gateway: %d patients through %s, seed %d\n\n", patients, gw, seed)
	for id, rec := range recs {
		fmt.Printf("%s: %d beats detected through the lossy link (fault-free reference %d), %d samples concealed\n",
			rec.Name, lossy.beats[id+1], ref[id], lossy.concealed[id+1])
	}
	st := gw.Stats()
	fmt.Printf("\ndelivery: %d dup, %d gap episodes, %d reordered, %d frames lost, %d samples concealed, %d restarts\n",
		st.DupFrames, st.GapFrames, st.Reordered, st.LostFrames, st.Concealed, st.GapRestarts)
	fmt.Printf("transport: %d frames offered, %d backpressure retries, %d shed\n",
		tst.Frames, tst.Retries, tst.Shed)
	gw.Close()

	// Part 2, on the wire: a loopback TCP listener with idle reaping and
	// overload shedding, delivering drained events to the monitoring side
	// as they happen.
	gw = newGateway()
	defer gw.Close()
	var wire tally
	ln, err := serve.Listen(serve.ListenConfig{Network: "tcp", OnEvents: wire.onEvents}, gw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngateway %s listening on tcp %s\n\n", gw, ln.Addr())
	nst, err := serve.RunNet(serve.NetConfig{
		Network: "tcp", Addr: ln.Addr().String(),
		FrameSamples: 24, Seed: seed,
		Disconnect: 0.02, PartialWrites: true,
	}, sources(serve.FaultConfig{Loss: 0.03}))
	if err != nil {
		log.Fatal(err)
	}
	lst := ln.Stats()
	if err := ln.Close(); err != nil {
		log.Fatal(err)
	}
	for id, rec := range recs {
		fmt.Printf("%s: %d beats detected over the wire (fault-free reference %d), %d samples concealed\n",
			rec.Name, wire.beats[id+1], ref[id], wire.concealed[id+1])
	}
	fmt.Printf("\nwire: %d conns accepted, %d frames ingested, %d drains, %d NACKs sent, %d shed, %d idle timeouts\n",
		lst.Accepted, lst.Frames, lst.Drains, lst.Nacks, lst.Shed, lst.Timeouts)
	fmt.Printf("client: %d reconnects, %d NACKs absorbed, %d frames shed after retries, %.1f ms in backoff\n",
		nst.Reconnects, nst.Nacks, nst.Shed, float64(nst.BackoffNs)/1e6)
	st = gw.Stats()
	fmt.Printf("service: %d gap episodes, %d frames lost, %d samples concealed\n",
		st.GapFrames, st.LostFrames, st.Concealed)
}
