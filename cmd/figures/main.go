// figures regenerates every table and figure of the paper's evaluation
// (DESIGN.md §3) on the simulated cluster and writes them to the output
// directory as aligned text and CSV.
//
//	go run ./cmd/figures                 # everything, full axes (minutes)
//	go run ./cmd/figures -short          # trimmed axes (seconds)
//	go run ./cmd/figures -only f7,t3     # a subset
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"messengers/internal/bench"
	"messengers/internal/lan"
)

func main() {
	short := flag.Bool("short", false, "trim sweep axes for a quick run")
	outDir := flag.String("out", "experiments", "output directory")
	only := flag.String("only", "", "comma-separated subset (f4,f5,f6,f7,f12a,f12b,t1,t2,t3,a1,a3,a4,e1)")
	flag.Parse()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }
	cm := lan.DefaultCostModel()

	type job struct {
		id  string
		run func() (*bench.Table, error)
	}
	mandel := func(sweep bench.MandelSweep) func() (*bench.Table, error) {
		return func() (*bench.Table, error) {
			fig, err := bench.RunMandelFigure(cm, sweep)
			if err != nil {
				return nil, err
			}
			return fig.Table(), nil
		}
	}
	matmul := func(sweep bench.MatmulSweep) func() (*bench.Table, error) {
		return func() (*bench.Table, error) {
			fig, err := bench.RunMatmulFigure(cm, sweep)
			if err != nil {
				return nil, err
			}
			t := fig.Table()
			t.Title += fmt.Sprintf("  [crossover at block %d]", fig.Crossover())
			return t, nil
		}
	}
	jobs := []job{
		{"f4", mandel(bench.Fig4Sweep(*short))},
		{"f5", mandel(bench.Fig5Sweep(*short))},
		{"f6", mandel(bench.Fig6Sweep(*short))},
		{"f7", mandel(bench.Fig7Sweep(*short))},
		{"f12a", matmul(bench.Fig12aSweep(*short))},
		{"f12b", matmul(bench.Fig12bSweep(*short))},
		{"t1", func() (*bench.Table, error) {
			fig, err := bench.RunMatmulFigure(cm, bench.MatmulSweep{
				Name: "T1", M: 3, Host: lan.SPARC110, BlockSizes: []int{500},
			})
			if err != nil {
				return nil, err
			}
			t := fig.Table()
			gain := float64(fig.SeqNaive[0])/float64(fig.SeqBlock[0]) - 1
			t.Title = fmt.Sprintf("T1 (§3.2): sequential block-partition gain at n=1500: %.1f%% (paper ~13%%)", gain*100)
			return t, nil
		}},
		{"t2", func() (*bench.Table, error) { return bench.RunT2(cm) }},
		{"t3", func() (*bench.Table, error) { return bench.RunT3(), nil }},
		{"a1", func() (*bench.Table, error) {
			procs := []int{4, 16, 32}
			if *short {
				procs = []int{8}
			}
			return bench.RunA1CopyAblation(cm, 640, 8, procs)
		}},
		{"a3", func() (*bench.Table, error) { return bench.RunA3InterpreterOverhead(cm, []int{8, 16, 24}) }},
		{"a4", func() (*bench.Table, error) { return bench.RunA4CodeCarrying(cm, 640, 16, 8) }},
		{"e1", func() (*bench.Table, error) {
			procs := []int{4, 16, 32}
			if *short {
				procs = []int{8}
			}
			return bench.RunTrafficTable(cm, 1280, 8, procs)
		}},
	}

	for _, j := range jobs {
		if !selected(j.id) {
			continue
		}
		start := time.Now()
		tbl, err := j.run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", j.id, err))
		}
		txt := tbl.Format()
		fmt.Printf("%s  (%.1fs)\n\n", txt, time.Since(start).Seconds())
		if err := os.WriteFile(filepath.Join(*outDir, j.id+".txt"), []byte(txt), 0o644); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*outDir, j.id+".csv"), []byte(tbl.CSV()), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("results written to %s/\n", *outDir)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "figures: %v\n", err)
	os.Exit(1)
}
