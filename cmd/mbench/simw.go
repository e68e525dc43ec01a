package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"messengers"
	"messengers/internal/apps"
	"messengers/internal/bench"
	"messengers/internal/lan"
	"messengers/internal/obs"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// golden holds the simulated results every run must reproduce exactly: a
// change that is meant only to speed the simulator up must leave them
// alone. testdata/sim_golden.json was written from this tree and
// cross-checked against experiments/{f4,f12a,f12b}.csv where keys overlap.
//
//go:embed testdata/sim_golden.json
var goldenJSON []byte

func loadGolden() (map[string]int64, error) {
	g := map[string]int64{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/sim_golden.json: %w", err)
	}
	return g, nil
}

// cell is one simulated run of a figure: which system, what it returns.
type cell struct {
	key   string // golden key, e.g. "f4/msgr/g8/p32"
	group string // "msgr", "pvm" or "seq": whose host time it is
	run   func() (elapsed sim.Time, reg *obs.Metrics, err error)
}

// figCells lists one pass: Figure 4 and both panels of Figure 12 on their
// short axes, MESSENGERS, PVM and the sequential baselines, as
// bench.RunMandelFigure and bench.RunMatmulFigure run them.
func figCells() []cell {
	cm := lan.DefaultCostModel()
	var cells []cell
	f4 := bench.Fig4Sweep(true)
	seqP := apps.PaperMandelParams(f4.Size, f4.Grids[0], 1)
	cells = append(cells, cell{"f4/seq", "seq", func() (sim.Time, *obs.Metrics, error) {
		return apps.MandelSequential(cm, seqP).Elapsed, nil, nil
	}})
	for _, grid := range f4.Grids {
		for _, procs := range f4.Procs {
			p := apps.PaperMandelParams(f4.Size, grid, procs)
			cells = append(cells,
				cell{fmt.Sprintf("f4/msgr/g%d/p%d", grid, procs), "msgr", func() (sim.Time, *obs.Metrics, error) {
					r, err := apps.MandelMessengers(cm, p)
					if err != nil {
						return 0, nil, err
					}
					return r.Elapsed, r.Obs, nil
				}},
				cell{fmt.Sprintf("f4/pvm/g%d/p%d", grid, procs), "pvm", func() (sim.Time, *obs.Metrics, error) {
					r, err := apps.MandelPVM(cm, p)
					if err != nil {
						return 0, nil, err
					}
					return r.Elapsed, r.Obs, nil
				}})
		}
	}
	for _, sw := range []struct {
		id    string
		sweep bench.MatmulSweep
	}{{"f12a", bench.Fig12aSweep(true)}, {"f12b", bench.Fig12bSweep(true)}} {
		mcm := cm
		if sw.sweep.FastEthernet {
			mcm = cm.FastEthernet()
		}
		for _, s := range sw.sweep.BlockSizes {
			p := apps.MatmulParams{M: sw.sweep.M, S: s, Host: sw.sweep.Host, Seed: int64(s), SkipArithmetic: true}
			key := func(sys string) string { return fmt.Sprintf("%s/%s/s%d", sw.id, sys, s) }
			cells = append(cells,
				cell{key("msgr"), "msgr", func() (sim.Time, *obs.Metrics, error) {
					r, err := apps.MatmulMessengers(mcm, p)
					if err != nil {
						return 0, nil, err
					}
					return r.Elapsed, r.Obs, nil
				}},
				cell{key("pvm"), "pvm", func() (sim.Time, *obs.Metrics, error) {
					r, err := apps.MatmulPVM(mcm, p)
					if err != nil {
						return 0, nil, err
					}
					return r.Elapsed, r.Obs, nil
				}},
				cell{key("seqnaive"), "seq", func() (sim.Time, *obs.Metrics, error) {
					return apps.MatmulSequentialNaive(mcm, p).Elapsed, nil, nil
				}},
				cell{key("seqblock"), "seq", func() (sim.Time, *obs.Metrics, error) {
					return apps.MatmulSequentialBlock(mcm, p).Elapsed, nil, nil
				}})
		}
	}
	return cells
}

// figPass runs the cells once in a seeded order, checks each simulated
// result against the golden, adds what it saw to out.facts, and returns the
// host time the pass took.
func figPass(cells []cell, rng *rand.Rand, golden map[string]int64, out *outcome, sp *spanRec) (time.Duration, error) {
	pass := sp.id()
	start := time.Now()
	for _, i := range rng.Perm(len(cells)) {
		c := cells[i]
		t0 := time.Now()
		elapsed, reg, err := c.run()
		t1 := time.Now()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.key, err)
		}
		sp.add(0, "apps."+c.group, sp.id(), pass, t0, t1)
		out.facts["wall_s."+c.group] += t1.Sub(t0).Seconds()
		if c.key == "f4/seq" {
			out.facts["wall_s.mandel_kernel"] += t1.Sub(t0).Seconds()
		}
		if want, ok := golden[c.key]; !ok || int64(elapsed) != want {
			out.failf("%s: simulated %d ns, golden %d", c.key, int64(elapsed), want)
		}
		out.facts["bus_msgs"] += float64(reg.CounterValue("bus.msgs"))
		out.facts["bus_bytes"] += float64(reg.CounterValue("bus.bytes"))
		out.facts["pack_bytes"] += float64(reg.CounterValue("pvm.pack.bytes"))
	}
	end := time.Now()
	sp.add(0, "pass", pass, 0, start, end)
	out.facts["passes"]++
	return end.Sub(start), nil
}

func runSimFigs(e *env) (*outcome, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	out := &outcome{facts: map[string]float64{}}
	rng := rand.New(rand.NewSource(e.seed))
	// Set-up is building the sweep and warming up on Figure 12(a), whose
	// 500-block cells grow the heap to the working set of a pass.
	var cells []cell
	for i := 0; i < e.setups; i++ {
		warm := &outcome{facts: map[string]float64{}}
		t0 := time.Now()
		cells = figCells()
		var f12a []cell
		for _, c := range cells {
			if strings.HasPrefix(c.key, "f12a/") {
				f12a = append(f12a, c)
			}
		}
		if _, err := figPass(f12a, rng, golden, warm, nil); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		out.failures = append(out.failures, warm.failures...)
	}
	var passes []lapse
	for deadline := time.Now().Add(e.budget); out.attempts == 0 || time.Now().Before(deadline); out.attempts++ {
		d, err := figPass(cells, rng, golden, out, e.spans)
		if err != nil {
			return nil, err
		}
		passes = append(passes, lapse{1, d})
		out.opUS = append(out.opUS, float64(d.Nanoseconds())/1e3)
	}
	out.rates = chunkRates(passes)
	return out, nil
}

// ringWalkSrc is the cmd/mgvt script: virtual-time epochs alternating with
// ring hops, so every GVT round has suspended wake-ups and transient
// Messengers to account for. It has no native compute, so the event
// kernel, the LAN model and GVT control traffic are nearly all the work.
const ringWalkSrc = `
	for (k = 0; k < epochs; k++) {
		sched_dlt(0.5);
		hop(ll = "ring", ldir = +);
	}
`

const (
	gvtDaemons = 256
	gvtEpochs  = 40
)

// gvtStats is what one pass leaves behind, all in simulated units.
type gvtStats struct {
	makespan, roundTime sim.Time
	rounds, ctlMsgs     int64
	events              int64 // kernel events fired
}

// gvtPass builds the 256-daemon simulated cluster, injects one walker per
// daemon starting at a seeded offset, and steps the kernel dry.
func gvtPass(ring bool, offset int) (gvtStats, error) {
	sys, err := messengers.NewSimSystem(messengers.Config{Daemons: gvtDaemons, DistributedGVT: ring})
	if err != nil {
		return gvtStats{}, err
	}
	if err := sys.BuildNetwork(ringSpec(gvtDaemons)); err != nil {
		return gvtStats{}, err
	}
	if err := sys.CompileAndRegister("walk", ringWalkSrc); err != nil {
		return gvtStats{}, err
	}
	vars := map[string]value.Value{"epochs": value.Int(gvtEpochs)}
	for i := 0; i < gvtDaemons; i++ {
		d := (i + offset) % gvtDaemons
		if err := sys.InjectAt(d, "walk", fmt.Sprintf("r%d", d), vars); err != nil {
			return gvtStats{}, err
		}
	}
	var st gvtStats
	k := sys.Kernel()
	for k.Step() {
		st.events++
	}
	st.makespan = k.Now()
	if errs := sys.Errors(); len(errs) > 0 {
		return st, errs[0]
	}
	d0 := sys.Daemon(0).Stats
	st.rounds, st.roundTime = d0.GVTRounds, d0.GVTRoundTime
	for d := 0; d < gvtDaemons; d++ {
		st.ctlMsgs += sys.Daemon(d).Stats.GVTCtlMsgs
	}
	return st, nil
}

func runSimGVT(e *env) (*outcome, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	out := &outcome{facts: map[string]float64{}}
	rng := rand.New(rand.NewSource(e.seed))
	pass := func(o *outcome, sp *spanRec) (time.Duration, error) {
		id := sp.id()
		t0 := time.Now()
		st, err := gvtPass(false, rng.Intn(gvtDaemons))
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		sp.add(0, "sim.pass", id, 0, t0, t1)
		for key, got := range map[string]int64{
			"gvt/makespan": int64(st.makespan), "gvt/round_time": int64(st.roundTime),
			"gvt/rounds": st.rounds, "gvt/ctl_msgs": st.ctlMsgs,
		} {
			if got != golden[key] {
				o.failf("%s = %d, golden %d", key, got, golden[key])
			}
		}
		return t1.Sub(t0), nil
	}
	// Set-up is one warm-up pass: the first pass pays for the heap growing
	// to the cluster's working set.
	for i := 0; i < e.setups; i++ {
		d, err := pass(out, nil)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, d.Seconds())
	}
	var passes []lapse
	for deadline := time.Now().Add(e.budget); out.attempts == 0 || time.Now().Before(deadline); out.attempts++ {
		d, err := pass(out, e.spans)
		if err != nil {
			return nil, err
		}
		passes = append(passes, lapse{1, d})
		out.opUS = append(out.opUS, float64(d.Nanoseconds())/1e3)
	}
	out.rates = chunkRates(passes)
	return out, nil
}
