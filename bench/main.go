// Command bench is the repository's end-to-end benchmark: one seeded
// program that drives the design flow (Algorithm 1 and the Table 2 grid)
// and the streaming gateway through their public APIs, checks their
// outputs, and prints every metric by name with its unit.
//
//	go run . -workload explore-cold -seed 1 -seconds 20 -trace 0
//	go run . -workload all -seed 1 -trace 1 -trace-dir /some/dir
//	go run . -compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. An untraced run reports the
// end-to-end metrics; a traced run (-trace 1) reports the per-layer
// metrics, measured from spans this package records around each call
// into a layer. See README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/energy"
)

// workers is the explorer parallelism of the design-flow workloads: the
// reference host has two cores, and a fixed count keeps runs comparable
// across hosts.
const workers = 2

// minOps is the fewest ops a run measures, however short its time budget.
const minOps = 3

// setupReps is how often a run builds its fixture; setup_s is the median.
const setupReps = 3

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics an untraced run reports, on every
// workload. An op is one exploration, one grid, one gateway round or one
// socket run, depending on the workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_cpu_ms", "ms"},
	{"heap_live_p95_mb", "MiB"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload does not use reads 0.
var perLayer = []metricDef{
	{"ecg.generate_ms", "ms"},
	{"core.new_evaluator_ms", "ms"},
	{"energy.new_stimulus_ms", "ms"},
	{"dse.self_ms", "ms"},
	{"dse.candidates", "count"},
	{"dse.useful_ratio", "ratio"},
	{"core.evaluate_ms", "ms"},
	{"core.evaluate_calls", "count"},
	{"core.simulations", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"energy.stage_energy_ms", "ms"},
	{"energy.stage_energy_calls", "count"},
	{"energy.char_builds", "count"},
	{"energy.char_hit_ratio", "ratio"},
	{"kernel.tables_built", "count"},
	{"kernel.table_kib", "KiB"},
	{"kernel.build_ms", "ms"},
	{"pantompkins.run_ms", "ms"},
	{"pantompkins.detect_ms", "ms"},
	{"pantompkins.peak_detect_ms", "ms"},
	{"metrics.quality_ms", "ms"},
	{"metrics.match_ms", "ms"},
	{"core.attribution_ratio", "ratio"},
	{"serve.ingest_ms", "ms"},
	{"serve.ingest_ns_per_frame", "ns"},
	{"serve.drain_ms", "ms"},
	{"serve.drain_allocs", "count"},
	{"serve.events", "count"},
	{"serve.beats", "count"},
	{"serve.backpressure", "count"},
	{"serve.evictions", "count"},
	{"serve.connects", "count"},
	{"serve.finishes", "count"},
	{"serve.attribution_ratio", "ratio"},
	{"bench.framegen_ms", "ms"},
	{"bench.collect_ms", "ms"},
	{"net.sink_ingest_ms", "ms"},
	{"net.sink_drain_ms", "ms"},
	{"net.on_events_ms", "ms"},
	{"net.wire_ms", "ms"},
	{"net.frames", "count"},
	{"net.drains", "count"},
	{"net.nacks", "count"},
	{"net.shed", "count"},
	{"net.reconnects", "count"},
	{"net.resyncs", "count"},
	{"net.backoff_ms", "ms"},
	{"net.attribution_ratio", "ratio"},
	{"sessions_per_core", "sessions"},
	{"raw.setup_s", "s"},
	{"raw.op_ms_p50", "ms"},
	{"raw.op_cpu_ms", "ms"},
	{"host.calibration_ms", "ms"},
	{"tail.op_ms", "ms"},
	{"tail.op_pct", "pct"},
	{"tail.op_samples", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// workload is one seeded input set the benchmark runs.
type workload struct {
	name, why string
	setup     func(e *env) (fixture, error)
}

var workloads = []workload{
	{"explore-cold", "two-gate Algorithm 1 from empty kernel and energy caches: the paper's Fig 11 cost as a fresh xbiosip dse pays it", setupExplore},
	{"grid-warm", "81-point Table 2 grid on warm caches: pipeline simulation, detection and grading with no table or energy builds", setupGrid},
	{"serve-steady", "4096 long-lived 360 Hz sessions, one frame each per gateway round: the batched drain's steady state", setupSteady},
	{"net-churn", "32 short sessions per loopback TCP run: dial, framing, lockstep drain and session setup and release", setupChurn},
}

// env is what a workload's setup receives.
type env struct {
	seed     uint64
	short    bool
	updating bool // rewriting the golden file: skip the golden check
	tr       *tracer
	// setupMS accumulates the per-layer cost of one setup, by metric name.
	setupMS map[string]float64
}

// timed runs fn and adds its wall time to the setup metric name.
func (e *env) timed(name string, fn func() error) error {
	t := time.Now()
	err := fn()
	e.setupMS[name] += ms(time.Since(t))
	return err
}

// fixture is a workload set up and ready to run ops.
type fixture interface {
	// prepare readies op i outside the timed region.
	prepare(i int) error
	// run is the timed op.
	run(i int) error
	// finish checks op i's outputs outside the timed region; a traced op
	// also replays its work layer by layer here.
	finish(i int) error
	// verify runs the checks that span ops (determinism, golden digests).
	verify(ops int) error
	// layers adds the workload's per-layer metrics of a traced run, given
	// the wall times (ms) of its untraced ops.
	layers(m map[string]float64, untraced []float64)
	// samplesPerOp is the ECG samples one op processes in real time, for
	// sessions_per_core (0 for the design-flow workloads).
	samplesPerOp() float64
	close()
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	out      string
	short    bool
	golden   string // rewrite this golden file from the run's digests
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// layers holds every per-layer metric the run measured, for -out.
	layers map[string]float64
}

// record is one line of a -out file: a result with what produced it.
type record struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     host               `json:"host"`
	Result   result             `json:"result"`
	Layers   map[string]float64 `json:"layers"`
}

func main() {
	var o options
	var traceFlag int
	var compare bool
	var spec string
	flag.StringVar(&o.workload, "workload", "", "explore-cold, grid-warm, serve-steady, net-churn or all")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measuring time per workload")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", "", "with -trace 1, write spans to DIR/<workload>.trace.json")
	flag.StringVar(&o.out, "out", "", "append each result as a JSON line to this file")
	flag.BoolVar(&o.short, "short", false, "smoke run: at most 3 ops and one setup per workload")
	flag.StringVar(&o.golden, "update-golden", "", "rewrite this golden digest file from the run (seed 1)")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: -compare A B")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "BENCHMARK.json, for -compare's bounds")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, spec, flag.Arg(0), flag.Arg(1)))
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "-trace takes 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	ok, err := runAll(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runAll runs o.workload (or every workload) and prints the results. It
// reports whether every run was correct.
func runAll(w io.Writer, o options) (bool, error) {
	var sel []workload
	for _, wl := range workloads {
		if o.workload == wl.name || o.workload == "all" {
			sel = append(sel, wl)
		}
	}
	if len(sel) == 0 {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	h := fingerprint()
	fmt.Fprintf(w, "host gomaxprocs=%d nproc=%d go=%s cpu=%q kernel=%s\n", h.GOMAXPROCS, h.NumCPU, h.Go, h.CPU, h.Kernel)
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, wl := range sel {
		res, err := runWorkload(w, wl, o)
		if err != nil {
			return false, fmt.Errorf("%s: %w", wl.name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "%s\n", line)
		if o.out != "" {
			if err := appendRecord(o.out, record{wl.name, o.seed, o.seconds, o.trace, h, *res, res.layers}); err != nil {
				return false, err
			}
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[wl.name+"."+k] = v
		}
	}
	if len(sel) > 1 {
		line, err := json.Marshal(all)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	return all.Correct, nil
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runWorkload sets the workload up setupReps times, measures ops for
// o.seconds, runs the cross-op checks and prints every metric.
func runWorkload(w io.Writer, wl workload, o options) (*result, error) {
	reps, maxOps := setupReps, 0
	if o.short {
		reps, maxOps = 1, minOps
	}
	cal := newCalibration()
	tr := newTracer()
	var fx fixture
	var setupS, setupCal []float64
	setupMS := map[string]float64{}
	for r := 0; r < reps; r++ {
		setupCal = append(setupCal, ms(cal.run()))
		if fx != nil {
			fx.close()
			fx = nil
		}
		// Every setup starts from empty process-wide caches, so the
		// repetitions measure the same work a fresh process does.
		kernel.DropCaches()
		energy.DropCaches()
		e := &env{seed: o.seed, short: o.short, updating: o.golden != "", tr: tr, setupMS: map[string]float64{}}
		t := time.Now()
		var err error
		fx, err = wl.setup(e)
		setupS = append(setupS, time.Since(t).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		for k, v := range e.setupMS {
			setupMS[k] += v / float64(reps)
		}
	}
	setupCal = append(setupCal, ms(cal.run()))
	defer fx.close()
	// Start the ops from a heap holding only the fixture, not the
	// garbage of the setups.
	runtime.GC()

	// calMS[i] is the calibration before op i; op i is scaled by the
	// calibrations on either side of it.
	var calMS []float64
	type sample struct {
		op        int
		wall, cpu float64 // ms
		traced    bool
	}
	var samples []sample
	var heapMB []float64
	failed := 0
	fail := func(i int, err error) {
		failed++
		if failed <= 5 {
			fmt.Fprintf(w, "fail op %d: %v\n", i, err)
		}
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	ops := 0
	for ; (maxOps == 0 || ops < maxOps) && (ops < minOps || time.Now().Before(deadline)); ops++ {
		i := ops
		traced := o.trace && i%2 == 1
		calMS = append(calMS, ms(cal.run()))
		tr.beginOp(i, traced)
		if err := fx.prepare(i); err != nil {
			tr.discardOp()
			fail(i, err)
			continue
		}
		c0 := cpuTime()
		t0 := time.Now()
		err := fx.run(i)
		d := time.Since(t0)
		c := cpuTime() - c0
		if err == nil {
			// finish may replay the op under spans, so the op stays open.
			err = fx.finish(i)
		}
		heapMB = append(heapMB, float64(liveHeap())/(1<<20))
		if err != nil {
			tr.discardOp()
			fail(i, err)
			continue
		}
		tr.endOp()
		samples = append(samples, sample{i, ms(d), ms(c), traced})
	}
	calMS = append(calMS, ms(cal.run()))
	var checks []error
	if err := fx.verify(ops); err != nil {
		checks = append(checks, err)
	}
	if tr.nestErr != nil {
		checks = append(checks, tr.nestErr)
	}
	if o.golden != "" {
		if err := updateGolden(o.golden, wl.name, fx); err != nil {
			checks = append(checks, err)
		}
	}

	fmt.Fprintf(w, "workload %s seed=%d trace=%d ops=%d setups=%d\n", wl.name, o.seed, b2i(o.trace), ops, reps)
	res := &result{
		Correct:   failed == 0 && len(checks) == 0,
		Attempted: ops,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
		layers:    map[string]float64{},
	}
	for _, err := range checks {
		fmt.Fprintf(w, "check failed: %v\n", err)
	}
	// End-to-end times are scaled to the reference host speed (see
	// calib.go); the raw.* metrics keep what the clock read.
	around := func(cals []float64, i int) float64 { return calibrationRefMS / math.Sqrt(cals[i]*cals[i+1]) }
	var scaledSetup []float64
	for r, s := range setupS {
		scaledSetup = append(scaledSetup, s*around(setupCal, r))
	}
	// Traced ops only give trace.overhead_ratio.
	var wall, cpu, scaledWall, scaledCPU, scaledTraced []float64
	for _, s := range samples {
		k := around(calMS, s.op)
		if s.traced {
			scaledTraced = append(scaledTraced, k*s.wall)
			continue
		}
		wall, cpu = append(wall, s.wall), append(cpu, s.cpu)
		scaledWall, scaledCPU = append(scaledWall, k*s.wall), append(scaledCPU, k*s.cpu)
	}
	e2e := map[string]float64{
		"setup_s":          median(scaledSetup),
		"op_ms_p50":        median(scaledWall),
		"op_cpu_ms":        median(scaledCPU),
		"heap_live_p95_mb": percentile(heapMB, 95),
	}
	layer := map[string]float64{
		"raw.setup_s":         median(setupS),
		"raw.op_ms_p50":       median(wall),
		"raw.op_cpu_ms":       median(cpu),
		"host.calibration_ms": median(calMS),
		"tail.op_samples":     float64(len(scaledWall)),
	}
	for k, v := range setupMS {
		layer[k] = v
	}
	if spo := fx.samplesPerOp(); spo > 0 {
		layer["sessions_per_core"] = spo / (e2e["op_cpu_ms"] / 1e3) / 360
	}
	if pct, v, ok := tail(scaledWall); ok {
		layer["tail.op_ms"], layer["tail.op_pct"] = v, pct
	}
	if o.trace {
		fx.layers(layer, wall)
		layer["trace.overhead_ratio"] = ratio(median(scaledTraced), median(scaledWall))
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "metric %s %.6g %s\n", m.name, e2e[m.name], m.unit)
		if !o.trace {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	}
	for _, m := range perLayer {
		v, ok := layer[m.name]
		if !o.trace && !ok {
			continue // untraced runs print only what they measured
		}
		fmt.Fprintf(w, "metric %s %.6g %s\n", m.name, v, m.unit)
		res.layers[m.name] = v
		if o.trace {
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	if o.trace {
		for _, n := range tr.names() {
			fmt.Fprintf(w, "span %s count=%d busy_ms_per_op=%.4g self_ms_per_op=%.4g\n",
				n, tr.totals[n].Count, tr.perOp(n), tr.selfPerOp(n))
		}
		if o.traceDir != "" {
			path, err := tr.write(o.traceDir, wl.name)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "trace written to %s\n", path)
		}
	}
	return res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeap returns the heap bytes marked live by the last GC.
func liveHeap() uint64 {
	metrics.Read(heapSample)
	if heapSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return heapSample[0].Value.Uint64()
}

// host identifies the machine a result was measured on; -compare refuses
// results from different hosts.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
}

func fingerprint() host {
	h := host{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Go: runtime.Version(), CPU: "unknown", Kernel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		var sb strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			sb.WriteByte(byte(c))
		}
		h.Kernel = sb.String()
	}
	return h
}
