// Quickstart: generate a synthetic ECG record, run the accurate and an
// approximate Pan-Tompkins pipeline, and compare detection quality and
// energy — the five-minute tour of the library.
package main

import (
	"fmt"
	"log"

	"github.com/xbiosip/xbiosip/internal/approx"
	"github.com/xbiosip/xbiosip/internal/core"
	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/ecg"
	"github.com/xbiosip/xbiosip/internal/energy"
	"github.com/xbiosip/xbiosip/internal/metrics"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

func main() {
	// 1. A 100-second ECG recording at 200 Hz, 16-bit ADC — the paper's
	//    acquisition chain — with ground-truth beat annotations.
	rec, err := ecg.NSRDBRecord(0, 20000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("record %s: %d samples, %d beats\n", rec.Name, len(rec.Samples), len(rec.Annotations))

	// 2. The accurate QRS detector.
	accurate, err := pantompkins.New(pantompkins.AccurateConfig())
	if err != nil {
		log.Fatal(err)
	}
	accRes := accurate.Process(rec)
	m, err := metrics.MatchPeaks(rec.Annotations, accRes.Detection.Peaks, core.DefaultPeakTolerance)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accurate pipeline: %d peaks, accuracy %.2f%%\n",
		len(accRes.Detection.Peaks), 100*m.Sensitivity())

	// 3. The paper's headline design B9: 10/12/2/8/16 LSBs approximated
	//    with ApproxAdd5 + AppMultV1.
	var b9 pantompkins.Config
	for i, st := range pantompkins.Stages {
		k := []int{10, 12, 2, 8, 16}[i]
		b9.Stage[st] = dsp.ArithConfig{LSBs: k, Add: approx.ApproxAdd5, Mul: approx.AppMultV1}
	}
	approxPipe, err := pantompkins.New(b9)
	if err != nil {
		log.Fatal(err)
	}
	appRes := approxPipe.Process(rec)
	m2, err := metrics.MatchPeaks(rec.Annotations, appRes.Detection.Peaks, core.DefaultPeakTolerance)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := metrics.NewSignalRef(accRes.Outputs.Filtered, metrics.SSIMWindow)
	if err != nil {
		log.Fatal(err)
	}
	psnr, _, err := ref.Quality(appRes.Outputs.Filtered)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("approximate B9:    %d peaks, accuracy %.2f%%, filtered-signal PSNR %.2f dB\n",
		len(appRes.Detection.Peaks), 100*m2.Sensitivity(), psnr)

	// 4. What did the approximation buy? Energy of the processing units.
	stim, err := energy.NewStimulus(rec)
	if err != nil {
		log.Fatal(err)
	}
	model := energy.NewModel(stim)
	red, err := model.PipelineReduction(b9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("end-to-end processing-energy reduction: %.2fx\n", red)
}
