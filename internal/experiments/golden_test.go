package experiments

import (
	"os"
	"strings"
	"testing"

	"github.com/xbiosip/xbiosip/internal/serve"
)

// goldenScenarios is the rendering the gateway scenarios must reproduce
// byte for byte, throughput lines aside (they carry wall-clock rates).
const goldenScenarios = "testdata/scenarios.golden"

// renderScenarios runs every gateway scenario once over a 2-record setup
// with fixed seeds and concatenates the renderings: FormatServe
// fault-free in-process, faulty through a 2-shard gateway, and fault-free
// over loopback TCP, then the delivery and transport sweeps.
func renderScenarios(t *testing.T) string {
	t.Helper()
	s, err := NewSetup(2, 3000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config(Fig12Configs[9].LSBs)
	var sb strings.Builder
	for _, opts := range []ServeOpts{
		{Sessions: 4, Seed: 3},
		{Sessions: 4, Shards: 2, Loss: 0.1, Burst: 0.01, Policy: serve.GapHold, Seed: 3},
		{Sessions: 4, Net: "tcp", Seed: 3},
	} {
		r, err := s.Serve(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.SplitAfter(FormatServe(cfg, r), "\n") {
			if !strings.HasPrefix(line, "throughput:") {
				sb.WriteString(line)
			}
		}
	}
	rows, err := s.DeliveryResilience(cfg, []float64{0, 0.05, 0.1}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(FormatDeliveryResilience(rows))
	tr, err := s.TransportResilience(cfg, TransportOpts{Losses: []float64{0, 0.05}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(FormatTransportResilience(tr))
	return sb.String()
}

// TestScenarioRenderingsGolden pins the serve, delivery and transport
// scenarios' text output against testdata/scenarios.golden, so a change
// to how the scenarios run or render shows as a diff here.
func TestScenarioRenderingsGolden(t *testing.T) {
	want, err := os.ReadFile(goldenScenarios)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderScenarios(t); got != string(want) {
		t.Fatalf("scenario renderings diverged from %s:\n--- got\n%s--- want\n%s", goldenScenarios, got, want)
	}
}
