package experiments

import (
	"fmt"
	"strings"

	"github.com/xbiosip/xbiosip/internal/metrics"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
)

// StreamRow is the outcome of streaming one record sample by sample
// through an approximate detector (the near-sensor deployment mode: the
// signal arrives as a stream, not a pre-loaded array).
type StreamRow struct {
	Record   string
	Samples  int
	Beats    int
	RefBeats int
	Accuracy float64 // sensitivity against the record's annotations
	MeanBPM  float64
}

// Streaming pushes every record of the evaluation set through one
// pipeline instance sample by sample — the record-by-record workload of a
// monitoring service. Detection runs incrementally alongside the stages
// (pantompkins.Stream couples the pipeline with a StreamDetector whose
// thresholds advance per sample), so the streaming path holds no record
// buffers and never rescans a record. The batch evaluation grades whole
// records with the same detector, so the beats are the ones it finds.
func (s *Setup) Streaming(cfg pantompkins.Config) ([]StreamRow, error) {
	p, err := pantompkins.New(cfg)
	if err != nil {
		return nil, err
	}
	var rows []StreamRow
	for _, rec := range s.Records {
		st := p.Stream(rec.FS)
		for _, x := range rec.Samples {
			st.Push(x)
		}
		det := st.Finish()
		m, err := metrics.MatchPeaks(rec.Annotations, det.Peaks, s.Eval.Tolerance)
		if err != nil {
			return nil, err
		}
		bpm := 0.0
		if n := len(det.Peaks); n >= 2 {
			spanS := float64(det.Peaks[n-1]-det.Peaks[0]) / float64(rec.FS)
			if spanS > 0 {
				bpm = 60 * float64(n-1) / spanS
			}
		}
		rows = append(rows, StreamRow{
			Record:   rec.Name,
			Samples:  len(rec.Samples),
			Beats:    len(det.Peaks),
			RefBeats: len(rec.Annotations),
			Accuracy: m.Sensitivity(),
			MeanBPM:  bpm,
		})
	}
	return rows, nil
}

// FormatStreaming renders the streaming workload summary.
func FormatStreaming(cfg pantompkins.Config, rows []StreamRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Streaming workload: %v, record by record, sample by sample\n", cfg)
	fmt.Fprintf(&sb, "%-12s %9s %7s %9s %9s %8s\n", "record", "samples", "beats", "reference", "accuracy", "HR[bpm]")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %9d %7d %9d %8.2f%% %8.1f\n",
			r.Record, r.Samples, r.Beats, r.RefBeats, 100*r.Accuracy, r.MeanBPM)
	}
	return sb.String()
}
