// mbench is the repository's benchmark: eight workloads over the
// Messenger's path (three hop sizes, two compute kernels, the service tier
// and the two simulated legs), four end-to-end metrics per workload, and a
// per-layer table taken from outside by timing calls into each layer's
// exported functions. README.md in this directory says why each workload
// exists and which end-to-end metric every layer metric should move.
//
//	go run ./cmd/mbench                                  # every workload, untraced
//	go run ./cmd/mbench -workload hop_small -seed 7      # one workload
//	go run ./cmd/mbench -workload hop_small -trace 1 -trace-out t.json
//	go run ./cmd/mbench -out a.jsonl ; go run ./cmd/mbench -out b.jsonl
//	go run ./cmd/mbench -compare a.jsonl b.jsonl
//
// The last line of standard output of a single-workload run is one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. mbench exits nonzero when
// any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names; the smoke test holds the two together. A
// per-layer metric is <module>.<what> and also says which end-to-end metric
// (on which workload) it should move, written down before anything is
// measured.
type metricDef struct {
	name, unit, moves string
}

// endToEnd is what a user of the system sees, per workload. The op each
// workload counts is in its workload.op. op_p50_us and ops_per_s are read
// from the quieter chunks of the run (quietP50, quietRate). The tail is
// printed and recorded with its sample count but is not one of these: its
// run-to-run spread on this sandbox (13 to 25 %) is as wide as the widest
// bound a gate may have.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "op_p50_us", unit: "us"},
	{name: "ops_per_s", unit: "1/s"},
}

// env is what one run of one workload receives: the seed, how long to
// measure, how many times to set up (setup_s is their median), and, on the
// traced run, the recorder of benchmark-side spans.
type env struct {
	seed   int64
	budget time.Duration
	setups int
	spans  *spanRec
}

// outcome is what a workload hands back.
type outcome struct {
	setups   []float64 // seconds, one per set-up repetition
	opUS     []float64 // one latency sample per op (or per lap, already divided), in time order
	rates    []float64 // ops per second of each chunk of the run
	attempts int64
	failures []string           // one line per failed op or correctness check
	facts    map[string]float64 // raw counts the layer table is derived from
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	op   string // what one op is
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"hop_small", "one TCP hop carrying scalar state (p50/p99: 1 in flight; ops/s: 8 in flight)", runHopSmall},
	{"hop_32k", "one TCP hop carrying a 64x64 matrix (32 KB)", runHop32k},
	{"hop_512k", "one TCP hop carrying a 256x256 matrix (512 KB)", runHop512k},
	{"compute_mandel", "one repetition of the Mandelbrot inner-loop kernel (95k VM steps)", runComputeMandel},
	{"compute_matmul", "one repetition of the 16x16 matget/matset multiply (100k VM steps)", runComputeMatmul},
	{"serve_mix", "one session through serve.Server, closed loop, 2 clients", runServeMix},
	{"sim_figs", "one pass over Figures 4, 12a and 12b on their short axes (37 simulated runs)", runSimFigs},
	{"sim_gvt", "one simulated 256-daemon ringWalk pass under coordinator GVT", runSimGVT},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric is one value in a record.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run of one workload, as appended to the -out file and as
// read back by -compare.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Samples    int               `json:"samples"`
	P50US      float64           `json:"plain_p50_us"` // over all samples of the run; not gated
	P99US      float64           `json:"plain_p99_us"`
	Metrics    map[string]metric `json:"metrics"`
	Failures   []string          `json:"failures,omitempty"`
	Commit     string            `json:"commit"`
	Go         string            `json:"go"`
	NProc      int               `json:"nproc"`
	GoMaxProcs int               `json:"gomaxprocs"`
}

// driverLine is the last line of standard output of a single-workload run.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runOne measures one workload and turns its outcome into a record.
func runOne(w *workload, seed int64, seconds float64, setups int, traced bool, traceOut string) (*record, error) {
	rec := &record{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		Metrics: map[string]metric{},
		Commit:  commit(), Go: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	var out *outcome
	if traced {
		lt, err := tracedRun(w, seed, seconds, traceOut)
		if err != nil {
			return nil, err
		}
		out = lt.selected
		for _, d := range perLayer {
			rec.Metrics[d.name] = metric{lt.values[d.name], d.unit}
		}
		lt.print(os.Stdout)
	} else {
		var err error
		out, err = w.run(&env{seed: seed, budget: time.Duration(seconds * float64(time.Second)), setups: setups})
		if err != nil {
			return nil, err
		}
		e2e := map[string]float64{
			"setup_s":   median(out.setups),
			"op_p50_us": quietP50(out.opUS),
			"ops_per_s": quietRate(out.rates),
		}
		for _, d := range endToEnd {
			rec.Metrics[d.name] = metric{e2e[d.name], d.unit}
		}
	}
	rec.Samples = len(out.opUS)
	rec.P50US, rec.P99US = median(out.opUS), percentile(out.opUS, 0.99)
	rec.Attempted = out.attempts
	rec.Failed = int64(len(out.failures))
	rec.Correct = len(out.failures) == 0 && out.attempts > 0
	rec.Failures = out.failures
	if len(rec.Failures) > 20 {
		rec.Failures = rec.Failures[:20]
	}
	return rec, nil
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
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

func printRecord(rec *record, w *workload) {
	fmt.Printf("%s  seed=%d  op = %s\n", rec.Workload, rec.Seed, w.op)
	fmt.Printf("  attempted=%d failed=%d  over all %d samples: p50 %.3f us, p99 %.3f us\n",
		rec.Attempted, rec.Failed, rec.Samples, rec.P50US, rec.P99US)
	if !rec.Trace {
		for _, d := range endToEnd {
			fmt.Printf("  %-12s %14.4f %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
		}
	}
	for _, f := range rec.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// procs is the GOMAXPROCS every run is made under. nproc says 2 here, but
// two spinning goroutines take 1.83x the wall time of one, so there is
// about one effective core, and a wake-up that crosses the two vCPUs costs
// more than the work it hands over: with 2 Ps a serial scalar hop takes 22
// us and wanders by a fifth from run to run, with 1 P it takes 11 us and
// stays within 2 %. The traced run reports the 2-P hop as
// core.hop_e2e_small_2p_ns.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	name := flag.String("workload", "", "run one workload (default: all of them)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "how long one workload measures")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer table in place of the end-to-end metrics")
	traceOut := flag.String("trace-out", "", "traced run: write the benchmark-side spans as Chrome trace JSON")
	out := flag.String("out", "", "append one JSON record per workload to this file (input of -compare)")
	cmp := flag.Bool("compare", false, "compare two -out files: mbench -compare a.jsonl b.jsonl")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatalf("-compare takes two record files")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fatalf("usage: mbench [-workload name] [-seed n] [-seconds s] [-trace 0|1]")
	}

	run := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		run = []workload{*w}
	}
	ok := true
	var last *record
	for i := range run {
		rec, err := runOne(&run[i], *seed, *seconds, setupReps, *trace == 1, *traceOut)
		if err != nil {
			fatalf("%s: %v", run[i].name, err)
		}
		printRecord(rec, &run[i])
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatalf("%v", err)
			}
		}
		ok = ok && rec.Correct
		last = rec
	}
	if *name != "" {
		line, err := json.Marshal(driverLine{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mbench: "+format+"\n", args...)
	os.Exit(1)
}
