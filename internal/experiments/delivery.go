package experiments

import (
	"fmt"
	"strings"

	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/serve"
)

// DeliveryPolicies is the concealment-policy axis of the delivery
// resilience sweep, in presentation order. GapDrop is included as the
// no-degradation baseline: it stalls at the first lost frame, which is
// exactly the failure mode the graceful policies exist to avoid.
var DeliveryPolicies = []serve.GapPolicy{
	serve.GapDrop, serve.GapHold, serve.GapZero, serve.GapRestart,
}

// DeliveryRow is one point of the delivery-resilience sweep: a loss rate,
// a concealment policy, and how much of the fault-free reference
// detection survived.
type DeliveryRow struct {
	Loss      float64
	Policy    serve.GapPolicy
	Recovered float64 // mean per-session fraction of reference beats recovered
	Lost      uint64  // frames estimated lost upstream
	Concealed uint64  // samples synthesized
	Restarts  uint64  // gap-forced detector restarts
}

// DeliveryResilience sweeps packet loss against detection recovery for
// every concealment policy — the delivery-noise analogue of the paper's
// stage error-resilience sweeps: instead of arithmetic approximation
// degrading the signal, the radio link does.
//
// Each sweep point streams len(Records) sessions through a 1-shard
// gateway with the policy under test, over fault links seeded from
// (seed, point, session) — independent of the policy, so all policies
// face the identical fault realization. The whole sweep is reproducible
// from seed. Burst adds burst dropout at every point on top of the swept
// uniform loss.
func (s *Setup) DeliveryResilience(cfg pantompkins.Config, losses []float64, burst float64, seed uint64) ([]DeliveryRow, error) {
	if len(losses) == 0 {
		losses = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2}
	}
	if err := checkProbabilities("loss", losses...); err != nil {
		return nil, err
	}
	if err := checkProbabilities("burst", burst); err != nil {
		return nil, err
	}
	ref, err := s.streamPeaks(cfg)
	if err != nil {
		return nil, err
	}
	var rows []DeliveryRow
	err = s.lossSweep(gatewayRun{cfg: cfg, sessions: len(s.Records), shards: 1, burst: burst, seed: seed}, losses, ref,
		func(r gatewayRun, recovered float64, out *gatewayOut) {
			rows = append(rows, DeliveryRow{
				Loss:      r.loss,
				Policy:    r.policy,
				Recovered: recovered,
				Lost:      out.stats.LostFrames,
				Concealed: out.stats.Concealed,
				Restarts:  out.stats.GapRestarts,
			})
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatDeliveryResilience renders the sweep as a loss-by-policy pivot of
// recovered detection, in the style of FormatResilience.
func FormatDeliveryResilience(rows []DeliveryRow) string {
	var sb strings.Builder
	sb.WriteString("Delivery resilience: recovered detection vs packet loss, per concealment policy\n")
	writeLossPivot(&sb, len(rows), func(i int) (float64, float64) { return rows[i].Loss, rows[i].Recovered })
	var lost, concealed, restarts uint64
	for _, r := range rows {
		lost += r.Lost
		concealed += r.Concealed
		restarts += r.Restarts
	}
	fmt.Fprintf(&sb, "across the sweep: %d frames lost, %d samples concealed, %d detector restarts\n",
		lost, concealed, restarts)
	return sb.String()
}
