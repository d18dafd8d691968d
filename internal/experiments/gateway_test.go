package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// TestFaultProbabilitiesValidated: every gateway scenario rejects a loss,
// burst or disconnect probability outside [0,1] with an error naming the
// value, instead of running a sweep point such as "200%" or silently
// running fault-free.
func TestFaultProbabilitiesValidated(t *testing.T) {
	s := testSetup(t)
	cfg := pantompkins.AccurateConfig()
	serveWith := func(opts ServeOpts) func() error {
		return func() error { _, err := s.Serve(cfg, opts); return err }
	}
	deliveryWith := func(losses []float64, burst float64) func() error {
		return func() error { _, err := s.DeliveryResilience(cfg, losses, burst, 1); return err }
	}
	transportWith := func(opts TransportOpts) func() error {
		return func() error { _, err := s.TransportResilience(cfg, opts); return err }
	}
	for _, tc := range []struct {
		name, value string
		run         func() error
	}{
		{"serve loss above 1", "loss probability 2 ", serveWith(ServeOpts{Sessions: 1, Loss: 2})},
		{"serve negative loss", "loss probability -0.5 ", serveWith(ServeOpts{Sessions: 1, Loss: -0.5})},
		{"serve NaN loss", "loss probability NaN ", serveWith(ServeOpts{Sessions: 1, Loss: math.NaN()})},
		{"serve burst", "burst probability 7 ", serveWith(ServeOpts{Sessions: 1, Burst: 7})},
		{"delivery loss", "loss probability 2 ", deliveryWith([]float64{0, 1, 2}, 0)},
		{"delivery burst", "burst probability 1.5 ", deliveryWith(nil, 1.5)},
		{"delivery negative burst", "burst probability -0.01 ", deliveryWith([]float64{0.1}, -0.01)},
		{"transport loss", "loss probability -1 ", transportWith(TransportOpts{Losses: []float64{0.1, -1}})},
		{"transport disconnect", "disconnect probability 3 ", transportWith(TransportOpts{Disconnect: 3})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("out-of-range probability accepted")
			}
			if !strings.Contains(err.Error(), tc.value) {
				t.Fatalf("error %q does not name %q", err, tc.value)
			}
		})
	}
}
