// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the streaming and gateway scenarios built on it (the
// xbiosip command's usage lists them all). Each experiment returns
// structured rows plus a formatted text rendering, so the CLI
// (cmd/xbiosip), the examples and the root go-test benchmarks
// (bench_test.go, which regenerate the figures) share one implementation.
// The end-to-end benchmark is the separate bench/ module.
//
// The three gateway scenarios, Serve, DeliveryResilience and
// TransportResilience, share one runner (gateway.go). It holds the
// reference detection Streaming also reports, and one gateway run: a
// fresh serve.Gateway behind the in-process transport or a loopback
// listener, with optional seeded fault links. It also holds one
// recovered-detection scorer, the loss×policy sweep and its pivot
// rendering.
package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/energy"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// Setup is the shared evaluation environment: a record set, a quality
// evaluator with cached accurate references, and an energy model with a
// stimulus taken from the first record.
type Setup struct {
	Records []*ecg.Record
	Eval    *core.Evaluator
	Energy  *energy.Model
	// Add and Mul are the elementary kinds used throughout the evaluation
	// (the paper restricts §6 to ApproxAdd5 and AppMultV1).
	Add approx.AdderKind
	Mul approx.MultKind
	// Workers is the slot count of each design-space exploration's engine
	// (0 = GOMAXPROCS). NewSetupOpts sets it to the evaluator's resolved
	// worker count, but the two are separate engines: the explorer's runs
	// candidate jobs, the evaluator's the per-record sub-jobs of each
	// design. Results are identical for every value; see package sched.
	Workers int
}

// NewSetup builds the environment over the first numRecords NSRDB-like
// records of n samples each with default engine options. The paper's unit
// is one 20,000-sample recording; smaller values trade fidelity for
// speed.
func NewSetup(numRecords, n int) (*Setup, error) {
	return NewSetupOpts(numRecords, n, core.EvalOptions{})
}

// NewSetupOpts is NewSetup with explicit evaluation-engine options (the
// worker count).
func NewSetupOpts(numRecords, n int, opts core.EvalOptions) (*Setup, error) {
	if numRecords < 1 || numRecords > ecg.NumNSRDBRecords {
		return nil, fmt.Errorf("experiments: record count %d out of range [1,%d]", numRecords, ecg.NumNSRDBRecords)
	}
	var records []*ecg.Record
	for i := 0; i < numRecords; i++ {
		rec, err := ecg.NSRDBRecord(i, n)
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
	eval, err := core.NewEvaluatorOpts(records, opts)
	if err != nil {
		return nil, err
	}
	stim, err := energy.NewStimulus(records[0])
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Setup{
		Records: records,
		Eval:    eval,
		Energy:  energy.NewModel(stim),
		Add:     approx.ApproxAdd5,
		Mul:     approx.AppMultV1,
		Workers: workers,
	}, nil
}

// stageCfg builds the stage configuration with the setup's module kinds.
func (s *Setup) stageCfg(k int) dsp.ArithConfig {
	if k == 0 {
		return dsp.Accurate()
	}
	return dsp.ArithConfig{LSBs: k, Add: s.Add, Mul: s.Mul}
}

// Config builds a full pipeline configuration from per-stage LSB counts
// (LPF, HPF, DER, SQR, MWI order).
func (s *Setup) Config(ks [pantompkins.NumStages]int) pantompkins.Config {
	var cfg pantompkins.Config
	for i, st := range pantompkins.Stages {
		cfg.Stage[st] = s.stageCfg(ks[i])
	}
	return cfg
}

// Table1 renders the elementary module library characterisation (paper
// Table 1). Values come straight from the 65nm cell characterisation in
// package approx, so this reproduction is exact by construction.
func Table1() string {
	var sb strings.Builder
	sb.WriteString("Table 1: Synthesis results of the elementary approximate adder and multiplier library\n")
	sb.WriteString(fmt.Sprintf("%-12s %10s %10s %10s %10s\n", "Module", "Area[um2]", "Delay[ns]", "Power[uW]", "Energy[fJ]"))
	for _, k := range approx.AdderKinds {
		ch := k.Characteristics()
		sb.WriteString(fmt.Sprintf("%-12s %10.2f %10.2f %10.2f %10.3f\n", k, ch.Area, ch.Delay, ch.Power, ch.Energy))
	}
	for _, k := range approx.MultKinds {
		ch := k.Characteristics()
		sb.WriteString(fmt.Sprintf("%-12s %10.2f %10.2f %10.2f %10.3f\n", k, ch.Area, ch.Delay, ch.Power, ch.Energy))
	}
	return sb.String()
}

// Fig1 renders the sensor-node energy breakdown (paper Fig 1).
func Fig1() string {
	var sb strings.Builder
	sb.WriteString("Fig 1: Daily energy of bio-signal monitoring sensor nodes\n")
	sb.WriteString(fmt.Sprintf("%-18s %14s %14s %12s %8s\n", "Node", "Sensing[J/d]", "Total[J/d]", "Proc[J/d]", "Orders"))
	for _, n := range energy.SensorNodes() {
		sb.WriteString(fmt.Sprintf("%-18s %14.2e %14.1f %12.1f %8.0f\n",
			n.Name, n.SensingJPerDay, n.TotalJPerDay, n.ProcessingJPerDay(), n.SensingToTotalOrders()))
	}
	return sb.String()
}
