// Command xbiosip regenerates the paper's tables and figures and runs the
// full XBioSiP methodology from the command line.
//
// Usage:
//
//	xbiosip [flags] <experiment>
//
// Experiments: table1, table2, fig1, fig2, fig8, fig10, fig11, fig12,
// fig13, ablation, noise, stream, serve, delivery, transport, dse,
// synth, all.
//
// Flags -records and -samples control the synthetic NSRDB-like evaluation
// set (the paper's unit is one 20,000-sample recording). -workers sets the
// slot count of two engines (see package sched): the evaluator's, which
// runs the per-record simulations of one design, and each design-space
// exploration's, which runs its candidate designs and stage-energy
// characterizations. Every table, figure and generated design is
// bit-identical for all -workers settings.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/xbiosip/xbiosip/internal/arith/kernel"
	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/energy"
	"github.com/xbiosip/xbiosip/internal/experiments"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/serve"
	"github.com/xbiosip/xbiosip/internal/synth"
)

func main() {
	records := flag.Int("records", 1, "number of NSRDB-like records to evaluate on (1..18)")
	samples := flag.Int("samples", 20000, "samples per record (paper: 20000 = 100 s at 200 Hz)")
	psnr := flag.Float64("psnr", 15, "signal-quality constraint for the pre-processing gate (dB)")
	accuracy := flag.Float64("accuracy", 1.0, "final peak-detection-accuracy constraint [0,1]")
	workers := flag.Int("workers", 0, "design-evaluation workers (0 = all CPUs, 1 = sequential; results are identical)")
	sessions := flag.Int("sessions", 64, "concurrent patient sessions for the serve experiment")
	gwShards := flag.Int("gwshards", 1, "gateway shards for the serve experiment (one Service per core)")
	loss := flag.Float64("loss", 0, "injected packet-loss probability for serve/delivery (0 = perfect links)")
	burst := flag.Float64("burst", 0, "injected burst-dropout entry probability for serve/delivery")
	seed := flag.Uint64("seed", 1, "fault-injection seed; serve/delivery runs are reproducible from it")
	policy := flag.String("policy", "hold", "gap-concealment policy for serve under faults (drop|hold|zero|restart)")
	netw := flag.String("net", "", "run serve/transport over a real socket: tcp or udp (empty = in-process transport)")
	addr := flag.String("addr", "", "listen address for -net (default loopback with an ephemeral port)")
	verbose := flag.Bool("v", false, "report kernel working-set statistics (per-design table footprint, global table cache)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbiosip:", err)
		os.Exit(2)
	}
	if *netw != "" && *netw != "tcp" && *netw != "udp" {
		fmt.Fprintf(os.Stderr, "xbiosip: -net %q: want tcp or udp\n", *netw)
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *records, *samples, *psnr, *accuracy, *workers, *verbose, experiments.ServeOpts{
		Sessions: *sessions, Shards: *gwShards, Loss: *loss, Burst: *burst, Seed: *seed, Policy: pol,
		Net: *netw, Addr: *addr,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "xbiosip:", err)
		os.Exit(1)
	}
	if *verbose {
		printKernelStats()
	}
}

// parsePolicy maps the -policy flag to a serve.GapPolicy.
func parsePolicy(s string) (serve.GapPolicy, error) {
	for p := serve.GapDrop; p <= serve.GapRestart; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown gap policy %q (drop|hold|zero|restart)", s)
}

// printKernelStats reports the simulator's kernel working set — the live
// plan/table cache, its allocated and filled table bytes, and the energy
// characterization cache — tiered the way future PRs should track it
// (like ns/op, but bytes).
func printKernelStats() {
	st := kernel.CacheStats()
	fmt.Printf("kernel cache: %d adder plans, %d multiplier plans, %d const-mul tables, %d square tables, %d chain projections\n",
		st.Adders, st.Multipliers, st.ConstTables, st.SquareTables, st.ChainProjs)
	fmt.Printf("kernel tables: %.1f KiB live, %.1f KiB filled (%.1f KiB full, %.1f KiB chain projections)\n",
		float64(st.TableBytes)/1024, float64(st.FilledBytes)/1024,
		float64(st.FullTableBytes)/1024, float64(st.ChainProjBytes)/1024)
	est := energy.CacheStats()
	fmt.Printf("energy characterizations: %d cached (stage, config) pairs, %d netlist cells, %.1f KiB activity; %d hits, %d builds\n",
		est.Entries, est.Cells, float64(est.ActivityBytes)/1024, est.Hits, est.Misses)
}

// designFootprint prints one design's live kernel table bytes.
func designFootprint(label string, cfg pantompkins.Config) {
	p, err := pantompkins.New(cfg)
	if err != nil {
		return
	}
	fmt.Printf("  kernel tables (%s): %.1f KiB for %v\n", label, float64(p.KernelTableBytes())/1024, cfg)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: xbiosip [flags] <experiment>

experiments:
  table1   elementary approximate module library characterisation
  table2   pre-processing design grid (exhaustive 81 + Algorithm 1)
  fig1     sensor-node energy breakdown
  fig2     LPF error-resilience sweep
  fig8     HPF/DER/SQR/MWI error-resilience sweeps
  fig10    uniform 4-LSB output-quality comparison
  fig11    exploration-time comparison
  fig12    energy-quality of configurations A1, A2, B1-B14
  fig13    heartbeat misclassification analysis of B10
  ablation stage energy under the three accounting policies
  noise    detection accuracy vs EMG noise, accurate vs B9
  stream   push every record through the B9 detector sample by sample
  serve    multiplex -sessions framed patient streams through the
           -gwshards-sharded gateway (B9), reporting live sessions/core;
           -loss/-burst/-seed inject reproducible delivery faults
  delivery sweep packet loss against recovered detection for every
           gap-concealment policy (drop/hold/zero/restart)
  transport gate the gateway over real loopback sockets (-net tcp|udp,
           -addr): fault-free event bit-identity vs the in-process
           transport, then the loss x policy sweep with chaos
           disconnects and partial writes on the live socket
  dse      run the full two-gate XBioSiP methodology
  synth    synthesis reports of the five accurate stage netlists
  all      everything above

flags:
`)
	flag.PrintDefaults()
}

func run(what string, records, samples int, psnr, accuracy float64, workers int, verbose bool, serveOpts experiments.ServeOpts) error {
	// Experiments that need no evaluation environment.
	switch what {
	case "table1":
		fmt.Print(experiments.Table1())
		return nil
	case "fig1":
		fmt.Print(experiments.Fig1())
		return nil
	case "synth":
		return synthReports()
	}

	s, err := experiments.NewSetupOpts(records, samples, core.EvalOptions{Workers: workers})
	if err != nil {
		return err
	}
	// The deployed design of the streaming and gateway experiments.
	b9 := experiments.Fig12Configs[9]
	if b9.Name != "B9" {
		return fmt.Errorf("config table changed: %s", b9.Name)
	}
	deployed := s.Config(b9.LSBs)
	all := what == "all"
	if all {
		fmt.Print(experiments.Table1(), "\n", experiments.Fig1(), "\n")
		if err := synthReports(); err != nil {
			return err
		}
	}
	if all || what == "fig2" {
		rows, err := s.StageResilience(pantompkins.LPF)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatResilience(pantompkins.LPF, rows), "\n")
	}
	if all || what == "fig8" {
		for _, st := range []pantompkins.Stage{pantompkins.HPF, pantompkins.DER, pantompkins.SQR, pantompkins.MWI} {
			rows, err := s.StageResilience(st)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatResilience(st, rows), "\n")
		}
	}
	if all || what == "fig10" {
		r, err := s.UniformApproximation(4)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatUniform(r), "\n")
	}
	if all || what == "table2" {
		r, err := s.Table2(psnr)
		if err != nil {
			return err
		}
		fmt.Print(s.FormatTable2(r), "\n")
	}
	if all || what == "fig11" {
		rows, err := s.ExplorationTime()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig11(rows), "\n")
	}
	if all || what == "fig12" {
		rows, err := s.Fig12()
		if err != nil {
			return err
		}
		out, err := s.FormatFig12(rows)
		if err != nil {
			return err
		}
		fmt.Print(out, "\n")
	}
	if all || what == "fig13" {
		r, err := s.Misclassification(experiments.Fig12Configs[10])
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatMisclassification(r), "\n")
	}
	if all || what == "ablation" {
		rows, err := s.EnergyAccountingAblation()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblation(rows), "\n")
	}
	if all || what == "noise" {
		rows, err := s.NoiseRobustness([]float64{0.02, 0.05, 0.10, 0.20}, samples)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatNoiseRobustness(rows), "\n")
	}
	if all || what == "stream" {
		rows, err := s.Streaming(deployed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatStreaming(deployed, rows), "\n")
	}
	if all || what == "serve" {
		r, err := s.Serve(deployed, serveOpts)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatServe(deployed, r), "\n")
	}
	if all || what == "delivery" {
		// -loss caps the sweep when set; the default sweep otherwise.
		var losses []float64
		if l := serveOpts.Loss; l != 0 {
			losses = []float64{0, l / 4, l / 2, l}
		}
		rows, err := s.DeliveryResilience(deployed, losses, serveOpts.Burst, serveOpts.Seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatDeliveryResilience(rows), "\n")
	}
	if all || what == "transport" {
		// -loss caps the sweep when set; the default sweep otherwise.
		var losses []float64
		if l := serveOpts.Loss; l != 0 {
			losses = []float64{0, l / 2, l}
		}
		r, err := s.TransportResilience(deployed, experiments.TransportOpts{
			Network: serveOpts.Net, Addr: serveOpts.Addr,
			Losses: losses, Seed: serveOpts.Seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTransportResilience(r), "\n")
	}
	if all || what == "dse" {
		return runMethodology(s, psnr, accuracy, verbose)
	}
	switch what {
	case "all", "fig2", "fig8", "fig10", "table2", "fig11", "fig12", "fig13", "ablation", "noise", "stream", "serve", "delivery", "transport", "dse":
		return nil
	}
	return fmt.Errorf("unknown experiment %q (run without arguments for usage)", what)
}

func runMethodology(s *experiments.Setup, psnr, accuracy float64, verbose bool) error {
	m := core.NewMethodology(s.Eval, s.Energy)
	m.SignalConstraint = psnr
	m.FinalConstraint = accuracy
	m.Workers = s.Workers
	d, err := m.Run()
	if err != nil {
		return err
	}
	fmt.Printf("XBioSiP methodology result (PSNR >= %.1f dB, accuracy >= %.2f%%)\n", psnr, 100*accuracy)
	fmt.Printf("  pre-processing unit:   %v (%d evaluations)\n", d.PreConfig, d.PreEvaluations)
	fmt.Printf("  final processor:       %v (%d evaluations)\n", d.Config, d.ProcEvaluations)
	fmt.Printf("  peak accuracy %.2f%%, PSNR %.2f dB, SSIM %.3f\n",
		100*d.Quality.PeakAccuracy, d.Quality.PSNR, d.Quality.SSIM)
	fmt.Printf("  end-to-end energy reduction: %.2fx\n", d.EnergyReduction)
	st := s.Eval.CacheStats()
	fmt.Printf("  evaluation engine: %d workers, %d pipeline simulations, %d cache hits\n",
		m.Workers, st.Misses, st.Hits)
	if verbose {
		designFootprint("accurate", pantompkins.AccurateConfig())
		designFootprint("pre-processing unit", d.PreConfig)
		designFootprint("final design", d.Config)
	}
	return nil
}

func synthReports() error {
	for _, st := range pantompkins.Stages {
		n, err := pantompkins.StageNetlist(st, dsp.Accurate())
		if err != nil {
			return err
		}
		r, err := synth.AnalyzeOptimized(n, nil)
		if err != nil {
			return err
		}
		fmt.Print(synth.FormatReport(r))
	}
	return nil
}
