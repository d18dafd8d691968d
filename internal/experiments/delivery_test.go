package experiments

import (
	"reflect"
	"strings"
	"testing"

	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/serve"
)

// TestServeGatewayShards: the serve scenario passes its bit-identity gate
// through the sharded gateway, and the per-record rows are identical for
// every shard count.
func TestServeGatewayShards(t *testing.T) {
	s := testSetup(t)
	cfg := pantompkins.AccurateConfig()
	base, err := s.Serve(cfg, ServeOpts{Sessions: 6, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Recovered != 1.0 {
		t.Fatalf("fault-free Recovered = %v", base.Recovered)
	}
	for _, shards := range []int{2, 4} {
		r, err := s.Serve(cfg, ServeOpts{Sessions: 6, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Rows, base.Rows) {
			t.Fatalf("shards=%d rows diverged:\n%+v\n%+v", shards, r.Rows, base.Rows)
		}
		if r.Stats.Samples != base.Stats.Samples || r.Stats.Finishes != base.Stats.Finishes {
			t.Fatalf("shards=%d stats diverged: %+v vs %+v", shards, r.Stats, base.Stats)
		}
	}
	out := FormatServe(cfg, base)
	if !strings.Contains(out, "delivery:") || !strings.Contains(out, "gateway") {
		t.Fatalf("FormatServe missing delivery/gateway lines:\n%s", out)
	}
}

// TestServeFaultySeedReproducible: under injected loss the scenario
// degrades measurably and is a pure function of the seed.
func TestServeFaultySeedReproducible(t *testing.T) {
	s := testSetup(t)
	cfg := pantompkins.AccurateConfig()
	opts := ServeOpts{Sessions: 4, Shards: 2, Loss: 0.1, Seed: 11, Policy: serve.GapHold}
	a, err := s.Serve(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Serve(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Recovered != b.Recovered || a.Stats != b.Stats {
		t.Fatalf("same seed diverged: %v/%v, %+v vs %+v", a.Recovered, b.Recovered, a.Stats, b.Stats)
	}
	if a.Recovered <= 0 || a.Recovered >= 1 {
		t.Fatalf("Recovered = %v under 10%% loss, want (0,1)", a.Recovered)
	}
	if a.Stats.LostFrames == 0 || a.Stats.Concealed == 0 {
		t.Fatalf("no loss accounted: %+v", a.Stats)
	}
}

// TestDeliveryResilience: zero loss recovers everything under every
// policy, the sweep is seed-reproducible, and graceful concealment beats
// the stalling GapDrop baseline under real loss.
func TestDeliveryResilience(t *testing.T) {
	s := testSetup(t)
	cfg := pantompkins.AccurateConfig()
	losses := []float64{0, 0.1}
	rows, err := s.DeliveryResilience(cfg, losses, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(losses)*len(DeliveryPolicies) {
		t.Fatalf("%d rows, want %d", len(rows), len(losses)*len(DeliveryPolicies))
	}
	at := func(loss float64, p serve.GapPolicy) DeliveryRow {
		for _, r := range rows {
			if r.Loss == loss && r.Policy == p {
				return r
			}
		}
		t.Fatalf("row (%v,%v) missing", loss, p)
		return DeliveryRow{}
	}
	for _, p := range DeliveryPolicies {
		if r := at(0, p); r.Recovered != 1.0 || r.Lost != 0 {
			t.Fatalf("loss 0 policy %v: %+v", p, r)
		}
	}
	if drop, hold := at(0.1, serve.GapDrop), at(0.1, serve.GapHold); hold.Recovered <= drop.Recovered {
		t.Fatalf("GapHold (%v) did not beat GapDrop (%v) at 10%% loss", hold.Recovered, drop.Recovered)
	}
	again, err := s.DeliveryResilience(cfg, losses, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Fatal("same seed produced a different sweep")
	}
	out := FormatDeliveryResilience(rows)
	for _, want := range []string{"Delivery resilience", "hold", "restart", "concealed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestDeliveryBurstRestartsScore runs the sweep of `xbiosip -records 2
// -samples 6000 -seed 3 -loss 0.2 -burst 0.01 delivery`: burst outages
// restart detectors, and the restarted sessions' beats, which count on
// in raw-signal samples across each gap, score against the reference
// like any other policy's.
func TestDeliveryBurstRestartsScore(t *testing.T) {
	s, err := NewSetup(2, 6000)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.DeliveryResilience(s.Config(Fig12Configs[9].LSBs), []float64{0, 0.05, 0.1, 0.2}, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	var restarts uint64
	for _, r := range rows {
		if r.Policy != serve.GapRestart {
			continue
		}
		restarts += r.Restarts
		if r.Recovered <= 0 {
			t.Fatalf("restart policy recovered %v at loss %v", r.Recovered, r.Loss)
		}
	}
	if restarts == 0 {
		t.Fatal("no detector restarts: the sweep no longer exercises GapRestart")
	}
}
