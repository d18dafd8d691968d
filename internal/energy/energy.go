// Package energy implements XBioSiP's energy models:
//
//   - per-stage and whole-pipeline energy of the Pan-Tompkins processing
//     units, computed from optimised stage netlists with stimulus-based
//     switching activity (the "Implementation & Energy Characterization of
//     Designs" box of the methodology, paper Fig 4);
//   - the bio-signal sensor-node energy breakdown behind the paper's
//     motivational Fig 1;
//   - the Raspberry Pi 3 B+ software reference point (configuration A1 of
//     Fig 12), modelled ~7 orders of magnitude above the ASIC design.
//
// Characterizing one (stage, configuration) pair — synthesizing the stage
// netlist (built constant-folded, so the raw constant-coefficient netlist
// is never materialized), simulating it over the stimulus window with the
// lane-packed activity engine of package netlist, and weighting power by
// the measured toggle rates — is a pure function of the pair and the
// stimulus, so the results live in a process-wide cache (see cache.go):
// every Model whose stimulus, vector count and warmup match shares the
// same entries, across core.Evaluator instances, design-space-exploration
// phases and experiments. CacheStats and DropCaches expose it the way
// kernel.CacheStats/DropCaches expose the arithmetic plan/table cache.
//
// Energy figures are per processed sample (fJ). Reductions are always
// quoted against the accurate configuration of the same unit, matching the
// paper's reporting.
package energy

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/netlist"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/synth"
)

// Stimulus carries the per-stage input signals used for switching-activity
// analysis: each stage is driven by the signal it actually sees in the
// accurate pipeline over a reference record. Each signal also carries a
// fingerprint so characterizations over different records never share a
// cache entry.
type Stimulus struct {
	inputs [pantompkins.NumStages][]int64
	hash   [pantompkins.NumStages]uint64
	hash2  [pantompkins.NumStages]uint64
}

// fingerprint hashes a stage signal (FNV-1a over the samples plus the
// length) for the characterization-cache key.
func fingerprint(sig []int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(len(sig))) * prime64
	for _, s := range sig {
		u := uint64(s)
		for b := 0; b < 64; b += 8 {
			h = (h ^ (u >> b & 0xff)) * prime64
		}
	}
	return h
}

// fingerprint2 is a second, independent hash of a stage signal
// (splitmix64-style finalizers folded into a multiply-xor chain). The
// cache key carries both fingerprints: two signals alias an entry only if
// they collide under FNV-1a *and* under this mix simultaneously, so a
// crafted or accidental FNV collision cannot silently return another
// stimulus's characterization (see cache.go).
func fingerprint2(sig []int64) uint64 {
	const (
		gold = 0x9e3779b97f4a7c15
		mix1 = 0xbf58476d1ce4e5b9
		mix2 = 0x94d049bb133111eb
		fold = 0xff51afd7ed558ccd
	)
	h := uint64(gold) ^ uint64(len(sig))*mix1
	for _, s := range sig {
		x := uint64(s) + gold
		x ^= x >> 30
		x *= mix1
		x ^= x >> 27
		x *= mix2
		x ^= x >> 31
		h = (h ^ x) * fold
	}
	h ^= h >> 33
	return h
}

// NewStimulus runs the accurate pipeline over the record and captures each
// stage's input signal.
func NewStimulus(rec *ecg.Record) (*Stimulus, error) {
	p, err := pantompkins.New(pantompkins.AccurateConfig())
	if err != nil {
		return nil, err
	}
	out := p.Run(rec.Samples)
	raw := make([]int64, len(rec.Samples))
	for i, s := range rec.Samples {
		raw[i] = int64(s)
	}
	st := &Stimulus{}
	st.inputs[pantompkins.LPF] = raw
	st.inputs[pantompkins.HPF] = out.LowPassed
	st.inputs[pantompkins.DER] = out.Filtered
	st.inputs[pantompkins.SQR] = out.Derivative
	st.inputs[pantompkins.MWI] = out.Squared
	for s := range st.inputs {
		st.hash[s] = fingerprint(st.inputs[s])
		st.hash2[s] = fingerprint2(st.inputs[s])
	}
	return st, nil
}

// Model computes stage and pipeline energy over one stimulus. All
// characterizations go through the process-wide cache, so models built
// over the same record and analysis window — every evaluator of a
// benchmark run, every phase of a design-space exploration — share the
// synthesized netlists, activity measurements and reports.
type Model struct {
	stim *Stimulus
	// Vectors is the number of consecutive stimulus samples applied to
	// each stage netlist during activity analysis.
	Vectors int
	// Warmup skips initial samples (filter settling) before stimulus.
	Warmup int
}

// DefaultVectors is enough stimulus to cover several heartbeats at 200 Hz.
const DefaultVectors = 600

// NewModel builds an energy model over the given stimulus.
func NewModel(stim *Stimulus) *Model {
	return &Model{stim: stim, Vectors: DefaultVectors, Warmup: 100}
}

// stagePortIndex parses a combinational stage port name x<idx>.
func stagePortIndex(name string) (int, error) {
	if !strings.HasPrefix(name, "x") {
		return 0, fmt.Errorf("energy: unexpected stage port %q", name)
	}
	idx, err := strconv.Atoi(name[1:])
	if err != nil || idx < 0 {
		return 0, fmt.Errorf("energy: unexpected stage port %q", name)
	}
	return idx, nil
}

// stageStreams builds packed simulator stimulus for one stage: consecutive
// sliding windows of the stage's stimulus signal across the tap ports
// x0..xN-1 (or the single port for the squarer). Values enter the
// magnitude-style datapath masked to the port width. The window must start
// at or after the signal (Warmup >= 0) and hold the activity engine's
// minimum of two vectors.
func (m *Model) stageStreams(s pantompkins.Stage, n *netlist.Netlist) ([]netlist.PortStimulus, error) {
	if m.Warmup < 0 {
		return nil, fmt.Errorf("energy: negative warmup %d", m.Warmup)
	}
	if m.Vectors < 2 {
		return nil, fmt.Errorf("energy: activity analysis needs >= 2 vectors, got %d", m.Vectors)
	}
	sig := m.stim.inputs[s]
	need := m.Warmup + m.Vectors + pantompkins.MWIWindow + 40
	if len(sig) < need {
		return nil, fmt.Errorf("energy: stimulus too short for stage %v: %d < %d", s, len(sig), need)
	}
	base := m.Warmup + pantompkins.MWIWindow
	ports := make([]netlist.PortStimulus, len(n.Inputs))
	for pi, p := range n.Inputs {
		idx, err := stagePortIndex(p.Name)
		if err != nil {
			return nil, err
		}
		mask := uint64(1)<<len(p.Bits) - 1
		vals := make([]uint64, m.Vectors)
		for v := range vals {
			x := sig[base+v-idx]
			if x < 0 {
				x = -x
			}
			vals[v] = uint64(x) & mask
		}
		ports[pi] = netlist.PortStimulus{Name: p.Name, Values: vals}
	}
	return ports, nil
}

// stageNetlist builds the optimised combinational variant of a stage for
// simulation. The variant is built constant-folded, so only its dead cells
// are left to drop.
func stageNetlist(s pantompkins.Stage, cfg dsp.ArithConfig) (*netlist.Netlist, error) {
	n, err := pantompkins.StageNetlistCombinational(s, cfg)
	if err != nil {
		return nil, err
	}
	return netlist.DeadCellElim(n)
}

// characterize builds one cache entry from scratch: synthesize (the stage
// netlist is built folded, never as the raw constant-coefficient netlist),
// analyze the optimised netlist once, simulate, weight. The activity-blind
// report and the activity-weighted one come from the same analysis (see
// synth.ActivityWeight), so the entry can answer both StageReport and
// StageOptimizedReport. It runs outside the cache lock; see storeChar.
func (m *Model) characterize(s pantompkins.Stage, cfg dsp.ArithConfig) (*charEntry, error) {
	n, err := stageNetlist(s, cfg)
	if err != nil {
		return nil, err
	}
	ports, err := m.stageStreams(s, n)
	if err != nil {
		return nil, err
	}
	sim, err := netlist.NewSimulator(n)
	if err != nil {
		return nil, err
	}
	act, err := sim.RunActivityStreams(ports)
	if err != nil {
		return nil, err
	}
	opt := synth.Analyze(n)
	return &charEntry{net: n, act: act, rep: synth.ActivityWeight(opt, n, act), opt: opt}, nil
}

// stageChar returns the (cached) characterization of one stage
// configuration.
func (m *Model) stageChar(s pantompkins.Stage, cfg dsp.ArithConfig) (*charEntry, error) {
	key := charKey{
		stage:   s,
		cfg:     cfg.Canonical(),
		stim:    m.stim.hash[s],
		stim2:   m.stim.hash2[s],
		vectors: m.Vectors,
		warmup:  m.Warmup,
	}
	if e, ok := lookupChar(key); ok {
		return e, nil
	}
	e, err := m.characterize(s, cfg)
	if err != nil {
		return nil, err
	}
	return storeChar(key, e), nil
}

// StageReport returns the synthesis report (area, activity-weighted power,
// delay, energy) of one stage configuration.
func (m *Model) StageReport(s pantompkins.Stage, cfg dsp.ArithConfig) (synth.Report, error) {
	e, err := m.stageChar(s, cfg)
	if err != nil {
		return synth.Report{}, err
	}
	return e.rep, nil
}

// StageOptimizedReport returns the activity-blind synthesis report of the
// optimised stage netlist — what synth.AnalyzeOptimized reports over the
// combinational stage, with library (0.5-activity) power. It is served
// from the same cache entry as StageReport, so accounting policies that
// compare optimised-netlist analysis against activity-weighted analysis
// (the energy-accounting ablation) never re-synthesize a stage the
// activity path already characterized.
func (m *Model) StageOptimizedReport(s pantompkins.Stage, cfg dsp.ArithConfig) (synth.Report, error) {
	e, err := m.stageChar(s, cfg)
	if err != nil {
		return synth.Report{}, err
	}
	return e.opt, nil
}

// StageActivity returns the switching-activity measurement and optimised
// netlist behind one stage configuration's report (both shared cache
// state: the netlist and activity must not be mutated).
func (m *Model) StageActivity(s pantompkins.Stage, cfg dsp.ArithConfig) (*netlist.Netlist, netlist.Activity, error) {
	e, err := m.stageChar(s, cfg)
	if err != nil {
		return nil, netlist.Activity{}, err
	}
	return e.net, e.act, nil
}

// StageEnergy returns the per-operation energy (fJ) of one stage
// configuration.
func (m *Model) StageEnergy(s pantompkins.Stage, cfg dsp.ArithConfig) (float64, error) {
	r, err := m.StageReport(s, cfg)
	if err != nil {
		return 0, err
	}
	return r.Energy, nil
}

// StageReduction returns the energy reduction factor of one approximated
// stage versus its accurate baseline.
func (m *Model) StageReduction(s pantompkins.Stage, cfg dsp.ArithConfig) (synth.Reduction, error) {
	base, err := m.StageReport(s, dsp.Accurate())
	if err != nil {
		return synth.Reduction{}, err
	}
	app, err := m.StageReport(s, cfg)
	if err != nil {
		return synth.Reduction{}, err
	}
	return synth.Reductions(base, app), nil
}

// PipelineEnergy returns the total per-sample energy (fJ) of a full
// Pan-Tompkins configuration (sum over the five stages).
func (m *Model) PipelineEnergy(cfg pantompkins.Config) (float64, error) {
	total := 0.0
	for _, s := range pantompkins.Stages {
		e, err := m.StageEnergy(s, cfg.Stage[s])
		if err != nil {
			return 0, err
		}
		total += e
	}
	return total, nil
}

// PipelineReduction returns the end-to-end energy reduction of cfg versus
// the accurate pipeline (the paper's Fig 12 y-axis).
func (m *Model) PipelineReduction(cfg pantompkins.Config) (float64, error) {
	base, err := m.PipelineEnergy(pantompkins.AccurateConfig())
	if err != nil {
		return 0, err
	}
	app, err := m.PipelineEnergy(cfg)
	if err != nil {
		return 0, err
	}
	if app == 0 {
		return 0, fmt.Errorf("energy: approximate pipeline energy is zero")
	}
	return base / app, nil
}

// RaspberryPiEnergyFactor scales the accurate ASIC design's energy to the
// paper's Raspberry Pi 3 B+ software baseline (configuration A1): "~7
// orders of magnitude higher" (paper §6.2).
const RaspberryPiEnergyFactor = 1e7

// RaspberryPiEnergy returns the modelled per-sample energy (fJ) of the
// software implementation on the Raspberry Pi 3 B+ (HDMI and WiFi off).
func (m *Model) RaspberryPiEnergy() (float64, error) {
	base, err := m.PipelineEnergy(pantompkins.AccurateConfig())
	if err != nil {
		return 0, err
	}
	return base * RaspberryPiEnergyFactor, nil
}
