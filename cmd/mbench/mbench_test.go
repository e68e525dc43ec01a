package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/sim_golden.json from this tree")

// TestSmoke runs every workload for a twentieth of a second and the
// traced run of one, and holds the record against BENCHMARK.json: every
// name well-formed and unique, every declared metric present.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	start := time.Now()
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, mbench has %d", len(decl.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	for i, dw := range decl.Workloads {
		name(dw.Name)
		w := findWorkload(dw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json workload %q is not in mbench", dw.Name)
		}
		rec, err := runOne(w, 1, 0.05, 1, i == 0, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.name, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var back record
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatalf("%s: record does not parse: %v", w.name, err)
		}
		want := decl.EndToEnd
		if rec.Trace {
			want = decl.PerLayer
		}
		if len(back.Metrics) != len(want) {
			t.Errorf("%s: %d metrics reported, BENCHMARK.json declares %d", w.name, len(back.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := back.Metrics[d.Name]
			if !ok {
				t.Errorf("%s: metric %s of BENCHMARK.json is missing", w.name, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, d.Name, m.Unit, d.Unit)
			}
		}
	}
	for _, d := range decl.EndToEnd {
		name(d.Name)
	}
	for _, d := range decl.PerLayer {
		name(d.Name)
	}
	// Tier-1 wall time must not grow (ROADMAP open item 4).
	if d := time.Since(start); d > 10*time.Second && !raceDetector {
		t.Errorf("smoke test took %v, want under 10 s", d)
	}
}

// TestGoldenAgainstExperiments cross-checks the golden's simulated seconds
// against the committed figures where the short and the full axes overlap.
// With -update it first rewrites the golden from this tree.
func TestGoldenAgainstExperiments(t *testing.T) {
	if *update {
		g := map[string]int64{}
		for _, c := range figCells() {
			elapsed, _, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			g[c.key] = int64(elapsed)
		}
		st, err := gvtPass(false, 0)
		if err != nil {
			t.Fatal(err)
		}
		g["gvt/makespan"], g["gvt/round_time"] = int64(st.makespan), int64(st.roundTime)
		g["gvt/rounds"], g["gvt/ctl_msgs"] = st.rounds, st.ctlMsgs
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/sim_golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		goldenJSON = data
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	secs := func(key string) string {
		ns, ok := golden[key]
		if !ok {
			t.Fatalf("golden has no %s", key)
		}
		return fmt.Sprintf("%.3f", float64(ns)/1e9)
	}
	read := func(path string) [][]string {
		f, err := os.Open(path)
		if err != nil {
			t.Skipf("no committed figures to check against: %v", err)
		}
		defer f.Close()
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	checked := 0
	f4 := read("../../experiments/f4.csv")
	for _, row := range f4[1:] {
		sys := map[string]string{"MESSENGERS": "msgr", "PVM": "pvm"}[row[1]]
		grid := strings.SplitN(row[0], "x", 2)[0]
		if sys == "" || (grid != "8" && grid != "32") {
			continue
		}
		for col, head := range f4[0] {
			if p := strings.TrimPrefix(head, "P="); p == "1" || p == "8" || p == "32" {
				if got := secs(fmt.Sprintf("f4/%s/g%s/p%s", sys, grid, p)); got != row[col] {
					t.Errorf("f4 %s grid %s P=%s: golden %s s, experiments/f4.csv %s s", sys, grid, p, got, row[col])
				}
				checked++
			}
		}
	}
	for _, fig := range []string{"f12a", "f12b"} {
		for _, row := range read("../../experiments/" + fig + ".csv")[1:] {
			if _, ok := golden[fig+"/msgr/s"+row[0]]; !ok {
				continue
			}
			for col, sys := range map[int]string{2: "msgr", 3: "pvm", 4: "seqnaive", 5: "seqblock"} {
				if got := secs(fmt.Sprintf("%s/%s/s%s", fig, sys, row[0])); got != row[col] {
					t.Errorf("%s %s block %s: golden %s s, experiments csv %s s", fig, sys, row[0], got, row[col])
				}
				checked++
			}
		}
	}
	if checked < 30 {
		t.Errorf("only %d cells overlapped with experiments/", checked)
	}
}
