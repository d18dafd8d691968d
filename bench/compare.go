package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// boundSpec is the part of BENCHMARK.json -compare reads: each end-to-end
// metric's direction and the share of the parent's median by which it
// may worsen.
type boundSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare compares the untraced runs recorded in two -out files, A the
// parent and B the change, workload by workload. Run i of A pairs with run
// i of B; record the pairs alternating which side runs first. Per metric:
//
//   - better: B wins at least 9 of every 10 pairs (ties count for neither)
//     and the medians differ by more than A's interquartile range;
//   - worse: B's median is worse than A's by more than the bound;
//   - unresolved: either side's spread (IQR over median) exceeds the bound
//     and not every B run beats every A run;
//   - within bound: otherwise.
//
// It refuses results from different hosts. The exit code is 0, 1 if any
// metric is worse or a run was incorrect, and 2 if it cannot compare.
func runCompare(w io.Writer, specPath, aPath, bPath string) int {
	var spec boundSpec
	b, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintf(w, "compare: reading %s: %v\n", specPath, err)
		return 2
	}
	as, err := loadRecords(aPath)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	bs, err := loadRecords(bPath)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	var hosts []host
	for _, r := range append(slices.Clone(as), bs...) {
		if !slices.Contains(hosts, r.Host) {
			hosts = append(hosts, r.Host)
		}
	}
	if len(hosts) > 1 {
		fmt.Fprintf(w, "compare: refusing to compare runs from different hosts: %+v\n", hosts)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-18s %28s %28s %8s %6s  %s\n", "workload", "metric", "A median [q1,q3]", "B median [q1,q3]", "change", "wins", "verdict")
	for _, wl := range workloads {
		ra, rb := byWorkload(as, wl.name), byWorkload(bs, wl.name)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-13s missing on one side (%d vs %d runs)\n", wl.name, len(ra), len(rb))
			code = max(code, 1)
			continue
		}
		for _, r := range append(slices.Clone(ra), rb...) {
			if !r.Result.Correct || r.Result.Failed > 0 {
				fmt.Fprintf(w, "%-13s seed %d: incorrect run (%d of %d ops failed)\n", wl.name, r.Seed, r.Result.Failed, r.Result.Attempted)
				code = max(code, 1)
			}
		}
		for _, m := range spec.EndToEnd {
			av, bv := values(ra, m.Name), values(rb, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-13s %-18s not recorded on both sides\n", wl.name, m.Name)
				code = max(code, 1)
				continue
			}
			v := judge(av, bv, m.Better != "higher", m.Bound)
			fmt.Fprintf(w, "%-13s %-18s %28s %28s %+7.1f%% %6s  %s\n", wl.name, m.Name,
				summary(av), summary(bv), 100*(median(bv)-median(av))/median(av),
				fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
			if v.verdict == "worse" {
				code = max(code, 1)
			}
		}
	}
	return code
}

type verdict struct {
	verdict     string
	wins, pairs int
}

// judge applies the rule runCompare documents to one metric.
func judge(a, b []float64, lowerBetter bool, bound float64) verdict {
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	v := verdict{pairs: min(len(a), len(b))}
	for i := 0; i < v.pairs; i++ {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	gain := ma - mb
	if !lowerBetter {
		gain = -gain
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := max(ratio(q3a-q1a, ma), ratio(q3b-q1b, mb))
	switch {
	case v.pairs >= 10 && 10*v.wins >= 9*v.pairs && gain > q3a-q1a:
		v.verdict = "better"
	case -gain > bound*ma:
		v.verdict = "worse"
	case spread > bound && !allBetter:
		v.verdict = "unresolved"
	default:
		v.verdict = "within bound"
	}
	return v
}

func summary(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g,%.4g]", m, q1, q3)
}

func values(rs []record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if mv, ok := r.Result.Metrics[metric]; ok {
			out = append(out, mv.Value)
		}
	}
	return out
}

func byWorkload(rs []record, name string) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == name && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

// loadRecords reads a -out file: one JSON record per line.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
