package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// declaration is the part of BENCHMARK.json that -compare judges by.
type declaration struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// exactLayer lists the per-layer metrics that repeat exactly on one tree:
// counts and simulated times of the deterministic simulator. Two sets of
// runs must agree on them.
var exactLayer = []string{
	"core.gvt.rounds", "core.gvt.ctl_msgs_per_round", "core.gvt.round_sim_ms", "core.gvt.round_sim_ms_ring",
	"sim.gvt_events", "lan.bus_msgs", "lan.bus_bytes", "pvm.pack_bytes",
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// medians, the delta, the bound of BENCHMARK.json and a verdict, then the
// exact per-layer metrics that differ. It reports whether anything is worse.
//
//	ok          b's median is within the bound of a's
//	worse       it is not, and the spread is narrower than the bound
//	unresolved  the spread of either side is wider than the bound
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("-compare reads the bounds from BENCHMARK.json in the current directory: %w", err)
	}
	var decl declaration
	if err := json.Unmarshal(raw, &decl); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	type key struct{ workload, metric string }
	collect := func(recs []record, traced bool) (map[key][]float64, map[string]int64) {
		vals, failed := map[key][]float64{}, map[string]int64{}
		for _, r := range recs {
			failed[r.Workload] += r.Failed
			if r.Trace != traced {
				continue
			}
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				vals[k] = append(vals[k], m.Value)
			}
		}
		return vals, failed
	}
	va, failedA := collect(a, false)
	vb, failedB := collect(b, false)

	fmt.Fprintf(w, "%-16s %-10s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "median a", "median b", "delta", "spread", "bound", "runs", "verdict")
	for i := range workloads {
		name := workloads[i].name
		for _, d := range decl.EndToEnd {
			xa, xb := va[key{name, d.Name}], vb[key{name, d.Name}]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			// delta > 0 means b is worse than a, whichever way is better.
			delta := (mb - ma) / ma
			if d.Better == "higher" {
				delta = -delta
			}
			sp := spread(xa)
			if s := spread(xb); s > sp {
				sp = s
			}
			verdict := "ok"
			switch {
			case sp > d.Bound && d.Name != "setup_s":
				verdict = "unresolved"
			case delta > d.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(w, "%-16s %-10s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%% %3d/%-3d %s\n",
				name, d.Name, ma, mb, 100*delta, 100*sp, 100*d.Bound, len(xa), len(xb), verdict)
		}
		if failedA[name] != 0 || failedB[name] != 0 {
			fmt.Fprintf(w, "%-16s failed ops: a %d, b %d  worse\n", name, failedA[name], failedB[name])
			worse = true
		}
	}

	// Exact per-layer metrics, from the traced records.
	ta, _ := collect(a, true)
	tb, _ := collect(b, true)
	for _, name := range exactLayer {
		seen := map[float64]bool{}
		for _, vals := range []map[key][]float64{ta, tb} {
			for k, xs := range vals {
				if k.metric == name {
					for _, x := range xs {
						seen[x] = true
					}
				}
			}
		}
		if len(seen) > 1 {
			var took []float64
			for x := range seen {
				took = append(took, x)
			}
			sort.Float64s(took)
			fmt.Fprintf(w, "worse: %s is exact and took the values %v\n", name, took)
			worse = true
		}
	}
	return worse, nil
}
