package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// specMetrics returns BENCHMARK.json's end-to-end and per-layer metric
// units by name.
func specMetrics(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkOutput checks every printed metric line against the spec and
// returns the per-workload results.
func checkOutput(t *testing.T, out string, e2e, layer map[string]string) []result {
	t.Helper()
	var results []result
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "metric "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("malformed metric line %q", line)
				continue
			}
			unit, ok := e2e[f[1]]
			if !ok {
				unit, ok = layer[f[1]]
			}
			if !metricName.MatchString(f[1]) || !ok || unit != f[3] {
				t.Errorf("metric line %q does not match BENCHMARK.json", line)
			}
		case strings.HasPrefix(line, "{"):
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, r)
		}
	}
	return results
}

func keys(m map[string]metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func sortedNames(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestShortTracedRun runs every workload at three ops with tracing on: the
// correctness checks must pass, every printed metric must be declared in
// BENCHMARK.json, and every recorded span must lie inside its parent.
func TestShortTracedRun(t *testing.T) {
	e2e, layer := specMetrics(t)
	dir := t.TempDir()
	var out bytes.Buffer
	start := time.Now()
	ok, err := runAll(&out, options{workload: "all", seed: 1, trace: true, traceDir: dir, short: true})
	t.Logf("-short -trace 1 over all workloads took %v", time.Since(start))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("checks failed:\n%s", out.String())
	}
	results := checkOutput(t, out.String(), e2e, layer)
	if len(results) != len(workloads)+1 {
		t.Fatalf("%d result lines, want one per workload plus the total", len(results))
	}
	for i, r := range results[:len(workloads)] {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 || r.Attempted > minOps {
			t.Errorf("%s: %+v", workloads[i].name, r)
		}
		if got, want := keys(r.Metrics), sortedNames(layer); !slices.Equal(got, want) {
			t.Errorf("%s: traced metrics %v, want the per_layer set %v", workloads[i].name, got, want)
		}
	}
	for _, wl := range workloads {
		b, err := os.ReadFile(filepath.Join(dir, wl.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct{ Spans []span }
		if err := json.Unmarshal(b, &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.Spans) == 0 {
			t.Errorf("%s: no spans recorded", wl.name)
		}
		byID := map[int32]span{}
		for _, s := range tf.Spans {
			byID[s.ID] = s
		}
		for _, s := range tf.Spans {
			if s.End < s.Start {
				t.Errorf("%s: span %+v ends before it starts", wl.name, s)
			}
			if s.Parent == 0 {
				continue
			}
			p, ok := byID[s.Parent]
			if !ok || s.Start < p.Start || s.End > p.End || s.Op != p.Op {
				t.Errorf("%s: span %+v is not inside its parent %+v", wl.name, s, p)
			}
		}
	}
}

// TestShortUntracedRun checks that an untraced run reports exactly the
// end-to-end metrics, and that -out records it for -compare.
func TestShortUntracedRun(t *testing.T) {
	e2e, layer := specMetrics(t)
	outFile := filepath.Join(t.TempDir(), "runs.jsonl")
	var out bytes.Buffer
	ok, err := runAll(&out, options{workload: "net-churn", seed: 2, out: outFile, short: true})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v\n%s", ok, err, out.String())
	}
	results := checkOutput(t, out.String(), e2e, layer)
	if len(results) != 1 {
		t.Fatalf("%d result lines, want 1", len(results))
	}
	if got, want := keys(results[0].Metrics), sortedNames(e2e); !slices.Equal(got, want) {
		t.Errorf("untraced metrics %v, want the end_to_end set %v", got, want)
	}
	for k, v := range results[0].Metrics {
		if v.Value <= 0 {
			t.Errorf("%s = %v, want a positive measurement", k, v.Value)
		}
	}
	recs, err := loadRecords(outFile)
	if err != nil || len(recs) != 1 || recs[0].Workload != "net-churn" || recs[0].Seed != 2 {
		t.Fatalf("recorded %+v, %v", recs, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := slices.Clone(base)
		for i := range out {
			out[i] += d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"faster", base, shift(-20), "better"},
		{"slower", base, shift(20), "worse"},
		{"same", base, shift(0.5), "within bound"},
		{"noisy", noisy, shift(-1), "unresolved"},
	} {
		if got := judge(tc.a, tc.b, true, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h host) string {
		r := record{Workload: "net-churn", Host: h, Result: result{Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{}}}
		for _, m := range endToEnd {
			r.Result.Metrics[m.name] = metricValue{1, m.unit}
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	h := fingerprint()
	other := h
	other.CPU = "another cpu"
	var out bytes.Buffer
	if code := runCompare(&out, "../BENCHMARK.json", write("a", h), write("b", other)); code != 2 {
		t.Errorf("exit code %d comparing different hosts, want 2:\n%s", code, out.String())
	}
	if code := runCompare(&out, "../BENCHMARK.json", write("a", h), write("b", h)); code != 0 {
		t.Errorf("exit code %d comparing one host, want 0:\n%s", code, out.String())
	}
}
