package bench

import (
	"testing"

	"messengers/internal/lan"
)

// These tests pin the qualitative results of the paper's evaluation — who
// wins, where the crossovers fall, how speedups scale — against the frozen
// cost model. EXPERIMENTS.md records measured-vs-paper for every claim.

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep skipped in -short")
	}
	cm := lan.DefaultCostModel()
	f, err := RunMandelFigure(cm, Fig7Sweep(false))
	if err != nil {
		t.Fatal(err)
	}
	last := len(f.Sweep.Procs) - 1
	// MESSENGERS must beat PVM at the coarsest granularity, with the gap
	// widening as processors are added.
	if r := f.MsgrOverPVM(0, last); r <= 1.05 {
		t.Errorf("M/PVM at 32 procs = %.2f, want clearly > 1", r)
	}
	if f.MsgrOverPVM(0, last) <= f.MsgrOverPVM(0, 0) {
		t.Error("MESSENGERS advantage should grow with processor count")
	}
	// Times must decrease monotonically with processors for both systems.
	for pi := 1; pi <= last; pi++ {
		if f.Msgr[0][pi] >= f.Msgr[0][pi-1] {
			t.Errorf("MESSENGERS time not decreasing at P=%d", f.Sweep.Procs[pi])
		}
		if f.PVM[0][pi] >= f.PVM[0][pi-1] {
			t.Errorf("PVM time not decreasing at P=%d", f.Sweep.Procs[pi])
		}
	}
	// The speedup ceiling of this decomposition is the heaviest 160x160
	// block (~5.7% of all iterations); 32 workers should get close to it.
	if s := f.SpeedupOverSeq(0, last); s < 14 {
		t.Errorf("speedup at 32 procs = %.1f, want >= 14", s)
	}
}

func TestFig4FineGridFavorsPVMAtLowProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep skipped in -short")
	}
	cm := lan.DefaultCostModel()
	f, err := RunMandelFigure(cm, MandelSweep{
		Name: "fine-grid check", Size: 320, Grids: []int{32}, Procs: []int{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper: "PVM is slightly better when the grid is finer" — at the
	// finest grid and low processor counts PVM should be at least
	// competitive (within a few percent) or ahead.
	for pi := range f.Sweep.Procs {
		if r := f.MsgrOverPVM(0, pi); r > 1.10 {
			t.Errorf("fine grid P=%d: M/PVM = %.2f; PVM should be competitive", f.Sweep.Procs[pi], r)
		}
	}
}

func TestFig12aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep skipped in -short")
	}
	cm := lan.DefaultCostModel()
	f, err := RunMatmulFigure(cm, Fig12aSweep(false))
	if err != nil {
		t.Fatal(err)
	}
	cross := f.Crossover()
	if cross < 50 || cross > 200 {
		t.Errorf("Fig 12(a) crossover at block %d, want within [50, 200] (paper ~150)", cross)
	}
	// Below the crossover PVM wins; above, MESSENGERS stays ahead.
	for i, s := range f.Sweep.BlockSizes {
		if s >= 2*cross && f.Msgr[i] >= f.PVM[i] {
			t.Errorf("block %d: MESSENGERS should stay ahead past the crossover", s)
		}
	}
	ob, on, ok := f.SpeedupAt(500)
	if !ok {
		t.Fatal("sweep missing block size 500")
	}
	if ob < 2.7 || ob > 4.5 {
		t.Errorf("n=1000 speedup over seq block = %.1f, want near 3.7", ob)
	}
	if on < 3.2 || on > 5.5 {
		t.Errorf("n=1000 speedup over seq naive = %.1f, want near 4.5", on)
	}
	if on <= ob {
		t.Error("speedup over naive must exceed speedup over block (cache model)")
	}
}

func TestFig12bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep skipped in -short")
	}
	cm := lan.DefaultCostModel()
	f, err := RunMatmulFigure(cm, Fig12bSweep(false))
	if err != nil {
		t.Fatal(err)
	}
	cross := f.Crossover()
	if cross < 10 || cross > 100 {
		t.Errorf("Fig 12(b) crossover at block %d, want within [10, 100] (paper ~20)", cross)
	}
	ob, on, ok := f.SpeedupAt(500)
	if !ok {
		t.Fatal("sweep missing block size 500")
	}
	if ob < 4.5 || ob > 9 {
		t.Errorf("n=1500 speedup over seq block = %.1f, want near 5.8", ob)
	}
	if on < 5.2 || on > 9 {
		t.Errorf("n=1500 speedup over seq naive = %.1f, want near 6.7", on)
	}
}

func TestT1SequentialBlockBeatNaive(t *testing.T) {
	cm := lan.DefaultCostModel()
	// §3.2: partitioning a 1500x1500 multiply into 9 blocks gives a
	// speedup on a SPARCstation 5 (the paper reports ~13%; our cache
	// curve, calibrated against the paper's n=1000 ratio, gives ~20-25%).
	f, err := RunMatmulFigure(cm, MatmulSweep{
		Name: "T1", M: 3, Host: lan.SPARC110, BlockSizes: []int{500},
	})
	if err != nil {
		t.Fatal(err)
	}
	gain := float64(f.SeqNaive[0])/float64(f.SeqBlock[0]) - 1
	if gain < 0.05 || gain > 0.40 {
		t.Errorf("block-partition gain = %.1f%%, want 5-40%%", gain*100)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "22"}, {"333", "4"}},
	}
	txt := tb.Format()
	if txt == "" || tb.CSV() != "a,b\n1,22\n333,4\n" {
		t.Errorf("rendering wrong:\n%s\n%s", txt, tb.CSV())
	}
}

// SpeedupOverSeq returns the MESSENGERS speedup over sequential for a grid
// index at a processor index.
func (f *MandelFigure) SpeedupOverSeq(gi, pi int) float64 {
	return float64(f.Seq) / float64(f.Msgr[gi][pi])
}

// MsgrOverPVM returns PVM time / MESSENGERS time (>1 means MESSENGERS
// faster) for a grid index at a processor index.
func (f *MandelFigure) MsgrOverPVM(gi, pi int) float64 {
	return float64(f.PVM[gi][pi]) / float64(f.Msgr[gi][pi])
}
