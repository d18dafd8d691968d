// Command ptqrs runs the Pan-Tompkins QRS detector over an ECG record —
// either a generated NSRDB-like record or a CSV file written by
// cmd/ecggen — under a configurable approximation, and reports detection
// statistics.
//
// Usage:
//
//	ptqrs [-record N | -in file.csv] [-lsbs LPF,HPF,DER,SQR,MWI] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/metrics"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

func main() {
	recordNum := flag.Int("record", 0, "NSRDB-like record number (0..17)")
	samples := flag.Int("samples", 20000, "samples to generate")
	inFile := flag.String("in", "", "read record from CSV instead of generating")
	lsbs := flag.String("lsbs", "0,0,0,0,0", "approximated LSBs per stage: LPF,HPF,DER,SQR,MWI")
	adder := flag.String("adder", "ApproxAdd5", "approximate adder kind")
	mult := flag.String("mult", "AppMultV1", "approximate multiplier kind")
	verbose := flag.Bool("v", false, "print the detector decision trace")
	flag.Parse()

	if err := run(*recordNum, *samples, *inFile, *lsbs, *adder, *mult, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "ptqrs:", err)
		os.Exit(1)
	}
}

func run(recordNum, samples int, inFile, lsbs, adder, mult string, verbose bool) error {
	var rec *ecg.Record
	var err error
	if inFile != "" {
		f, err := os.Open(inFile)
		if err != nil {
			return err
		}
		defer f.Close()
		rec, err = ecg.ReadCSV(f)
		if err != nil {
			return err
		}
	} else {
		rec, err = ecg.NSRDBRecord(recordNum, samples)
		if err != nil {
			return err
		}
	}

	ak, err := approx.ParseAdderKind(adder)
	if err != nil {
		return err
	}
	mk, err := approx.ParseMultKind(mult)
	if err != nil {
		return err
	}
	parts := strings.Split(lsbs, ",")
	if len(parts) != pantompkins.NumStages {
		return fmt.Errorf("-lsbs wants %d comma-separated values", pantompkins.NumStages)
	}
	var cfg pantompkins.Config
	for i, st := range pantompkins.Stages {
		k, err := strconv.Atoi(strings.TrimSpace(parts[i]))
		if err != nil {
			return fmt.Errorf("-lsbs %v: %w", st, err)
		}
		if k != 0 { // pantompkins.New rejects counts out of range
			cfg.Stage[st] = dsp.ArithConfig{LSBs: k, Add: ak, Mul: mk}
		}
	}

	p, err := pantompkins.New(cfg)
	if err != nil {
		return err
	}
	res := p.Process(rec)
	fmt.Printf("record %s: %d samples at %d Hz, %d annotated beats\n",
		rec.Name, len(rec.Samples), rec.FS, len(rec.Annotations))
	fmt.Printf("configuration: %v (%v, %v)\n", cfg, ak, mk)
	fmt.Printf("detected %d QRS peaks\n", len(res.Detection.Peaks))
	if len(rec.Annotations) > 0 {
		m, err := metrics.MatchPeaks(rec.Annotations, res.Detection.Peaks, core.DefaultPeakTolerance)
		if err != nil {
			return err
		}
		fmt.Printf("accuracy %.2f%% (TP %d, FP %d, FN %d), PPV %.2f%%, F1 %.3f\n",
			100*m.Sensitivity(), m.TruePositives, m.FalsePositives, m.FalseNegatives,
			100*m.PPV(), m.F1())
	}
	if verbose {
		for _, e := range res.Detection.Events {
			fmt.Printf("  %-11s mwi=%6d filtered=%6d value=%d\n", e.Kind, e.Index, e.Filtered, e.Value)
		}
	}
	return nil
}
