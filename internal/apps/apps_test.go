package apps

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"messengers/internal/lan"
	"messengers/internal/matmul"
)

func TestMandelAllImplementationsAgree(t *testing.T) {
	cm := lan.DefaultCostModel()
	// Large enough that compute dominates PVM's spawn cost (at tiny sizes
	// PVM legitimately loses to sequential — the paper's "speedup in most
	// cases").
	p := PaperMandelParams(160, 4, 3)

	seq := MandelSequential(cm, p)
	msgr, err := MandelMessengers(cm, p)
	if err != nil {
		t.Fatalf("messengers: %v", err)
	}
	pvmRes, err := MandelPVM(cm, p)
	if err != nil {
		t.Fatalf("pvm: %v", err)
	}
	if msgr.Checksum != seq.Checksum {
		t.Error("MESSENGERS image differs from sequential")
	}
	if pvmRes.Checksum != seq.Checksum {
		t.Error("PVM image differs from sequential")
	}
	if msgr.Elapsed <= 0 || pvmRes.Elapsed <= 0 || seq.Elapsed <= 0 {
		t.Errorf("elapsed: msgr=%v pvm=%v seq=%v", msgr.Elapsed, pvmRes.Elapsed, seq.Elapsed)
	}
	// Three workers share work that one host does alone: the parallel
	// runs must beat sequential on this compute-heavy configuration.
	if msgr.Elapsed >= seq.Elapsed {
		t.Errorf("messengers (%v) not faster than sequential (%v)", msgr.Elapsed, seq.Elapsed)
	}
	if pvmRes.Elapsed >= seq.Elapsed {
		t.Errorf("pvm (%v) not faster than sequential (%v)", pvmRes.Elapsed, seq.Elapsed)
	}
	if msgr.Obs.CounterValue("bus.bytes") == 0 || pvmRes.Obs.CounterValue("bus.bytes") == 0 {
		t.Error("no bus traffic recorded for a distributed run")
	}
}

func TestMandelSingleWorker(t *testing.T) {
	cm := lan.DefaultCostModel()
	p := PaperMandelParams(32, 2, 1)
	seq := MandelSequential(cm, p)
	msgr, err := MandelMessengers(cm, p)
	if err != nil {
		t.Fatal(err)
	}
	if msgr.Checksum != seq.Checksum {
		t.Error("single-worker image differs")
	}
	if got := msgr.Obs.CounterValue("mandel.deposits"); got != 4 {
		t.Errorf("deposits = %d", got)
	}
}

func TestMandelValidatesParams(t *testing.T) {
	cm := lan.DefaultCostModel()
	if _, err := MandelMessengers(cm, MandelParams{Workers: 0}); err == nil {
		t.Error("0 workers should fail")
	}
	if _, err := MandelPVM(cm, MandelParams{Workers: 0}); err == nil {
		t.Error("0 workers should fail")
	}
}

func TestMatmulAllImplementationsAgree(t *testing.T) {
	cm := lan.DefaultCostModel()
	for _, tc := range []struct{ m, s int }{{2, 8}, {3, 5}} {
		p := MatmulParams{M: tc.m, S: tc.s, Host: lan.SPARC110, Seed: 7}
		naive := MatmulSequentialNaive(cm, p)
		block := MatmulSequentialBlock(cm, p)
		msgr, err := MatmulMessengers(cm, p)
		if err != nil {
			t.Fatalf("m=%d s=%d messengers: %v", tc.m, tc.s, err)
		}
		pvmRes, err := MatmulPVM(cm, p)
		if err != nil {
			t.Fatalf("m=%d s=%d pvm: %v", tc.m, tc.s, err)
		}
		if d := matmul.MaxAbsDiff(naive.C, block.C); d > 1e-9 {
			t.Errorf("m=%d s=%d: block vs naive diff %g", tc.m, tc.s, d)
		}
		if d := matmul.MaxAbsDiff(naive.C, msgr.C); d > 1e-9 {
			t.Errorf("m=%d s=%d: MESSENGERS result wrong by %g", tc.m, tc.s, d)
		}
		if d := matmul.MaxAbsDiff(naive.C, pvmRes.C); d > 1e-9 {
			t.Errorf("m=%d s=%d: PVM result wrong by %g", tc.m, tc.s, d)
		}
		if msgr.Obs.CounterValue("gvt.rounds") == 0 {
			t.Error("MESSENGERS matmul should exercise GVT rounds")
		}
	}
}

// TestMatmulSkipArithmeticMatchesArithmetic runs every implementation with
// and without arithmetic. The skip run must take the same simulated time,
// move the same messages and bytes, drop the same PVM fragments and commit
// the same GVT sequence, while returning no product and leaving its shared
// block zero. The grids span blocks in one PVM fragment and in several, and
// one cost model has a pvmd receive buffer small enough to drop fragments.
func TestMatmulSkipArithmeticMatchesArithmetic(t *testing.T) {
	def := lan.DefaultCostModel()
	lossy := lan.DefaultCostModel()
	lossy.PVMRxBuffer = 2 * lossy.PVMFragSize
	// A runner returns the blocks it handed out, nil for the sequential
	// baselines, which use none.
	type runner func(*lan.CostModel, MatmulParams) (*MatmulResult, *matmulBlocks, error)
	parallel := func(f func(*lan.CostModel, MatmulParams, *matmulBlocks) (*MatmulResult, error)) runner {
		return func(cm *lan.CostModel, p MatmulParams) (*MatmulResult, *matmulBlocks, error) {
			mb, err := newMatmulBlocks(p)
			if err != nil {
				return nil, nil, err
			}
			r, err := f(cm, p, mb)
			return r, mb, err
		}
	}
	seq := func(f func(*lan.CostModel, MatmulParams) *MatmulResult) runner {
		return func(cm *lan.CostModel, p MatmulParams) (*MatmulResult, *matmulBlocks, error) {
			return f(cm, p), nil, nil
		}
	}
	impls := []struct {
		name string
		run  runner
	}{
		{"messengers", parallel(matmulMessengers)},
		{"pvm", parallel(matmulPVM)},
		{"seq_naive", seq(MatmulSequentialNaive)},
		{"seq_block", seq(MatmulSequentialBlock)},
	}
	counters := []string{
		"bus.msgs", "bus.bytes",
		"pvm.sends", "pvm.send.bytes", "pvm.recvs", "pvm.drops", "pvm.pack.bytes", "pvm.unpack.bytes",
	}
	grids := []struct {
		m, s  int
		cm    *lan.CostModel
		drops bool // the PVM run must drop fragments
	}{
		{2, 8, def, false},
		{3, 5, def, false},
		{2, 40, def, false}, // a block spans four fragments
		{3, 40, lossy, true},
	}
	for _, im := range impls {
		for _, g := range grids {
			name := fmt.Sprintf("%s/%dx%d_s%d", im.name, g.m, g.m, g.s)
			if g.drops {
				name += "_lossy"
			}
			t.Run(name, func(t *testing.T) {
				run := func(skip bool) (*MatmulResult, *matmulBlocks) {
					p := MatmulParams{M: g.m, S: g.s, Host: lan.SPARC110, Seed: 3, SkipArithmetic: skip}
					r, mb, err := im.run(g.cm, p)
					if err != nil {
						t.Fatal(err)
					}
					return r, mb
				}
				full, _ := run(false)
				skip, mb := run(true)
				if full.Elapsed != skip.Elapsed {
					t.Errorf("simulated time: arithmetic %v, skip %v", full.Elapsed, skip.Elapsed)
				}
				for _, c := range counters {
					if f, s := full.Obs.CounterValue(c), skip.Obs.CounterValue(c); f != s {
						t.Errorf("%s: arithmetic %d, skip %d", c, f, s)
					}
				}
				if !slices.Equal(full.GVTCommits, skip.GVTCommits) {
					t.Errorf("GVT commits: arithmetic %v, skip %v", full.GVTCommits, skip.GVTCommits)
				}
				// The comparisons above must not pass on empty books.
				switch im.name {
				case "messengers":
					if len(full.GVTCommits) == 0 || full.Obs.CounterValue("bus.msgs") == 0 {
						t.Error("MESSENGERS run committed no GVT or sent nothing")
					}
				case "pvm":
					if full.Obs.CounterValue("pvm.unpack.bytes") == 0 {
						t.Error("PVM run unpacked nothing")
					}
					if drops := full.Obs.CounterValue("pvm.drops"); g.drops != (drops > 0) {
						t.Errorf("PVM run dropped %d fragments, want drops: %v", drops, g.drops)
					}
				}
				if full.C == nil {
					t.Error("arithmetic run returned no product")
				}
				if skip.C != nil {
					t.Error("skip run assembled a product")
				}
				if mb == nil {
					return
				}
				for i, v := range mb.zero.Data {
					if v != 0 {
						t.Fatalf("shared block written at %d: %v", i, v)
					}
				}
			})
		}
	}
}

// TestSkippedPVMMatmulAllocatesNoBlock runs one PVM cell of a skipped
// sweep. Blocks travel by shape, so the run copies none and allocates none
// to receive into: all of it allocates less than one S x S block.
func TestSkippedPVMMatmulAllocatesNoBlock(t *testing.T) {
	p := MatmulParams{M: 3, S: 200, Host: lan.SPARC170, SkipArithmetic: true}
	mb, err := newMatmulBlocks(p)
	if err != nil {
		t.Fatal(err)
	}
	cm := lan.DefaultCostModel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = matmulPVM(cm, p, mb)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	block := uint64(8 * p.S * p.S)
	if got := after.TotalAlloc - before.TotalAlloc; got >= block {
		t.Errorf("skipped PVM cell allocated %d bytes, want < %d (one %dx%d block)", got, block, p.S, p.S)
	}
}

func TestMatmulDeterministicElapsed(t *testing.T) {
	cm := lan.DefaultCostModel()
	p := MatmulParams{M: 2, S: 6, Host: lan.SPARC170, Seed: 1}
	r1, err := MatmulMessengers(cm, p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := MatmulMessengers(cm, p)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := r1.Obs.CounterValue("bus.msgs"), r2.Obs.CounterValue("bus.msgs")
	if r1.Elapsed != r2.Elapsed || m1 != m2 {
		t.Errorf("nondeterministic: %v/%d vs %v/%d", r1.Elapsed, m1, r2.Elapsed, m2)
	}
}

func TestMatmulM1DegenerateCase(t *testing.T) {
	cm := lan.DefaultCostModel()
	p := MatmulParams{M: 1, S: 12, Host: lan.SPARC110, Seed: 5}
	naive := MatmulSequentialNaive(cm, p)
	msgr, err := MatmulMessengers(cm, p)
	if err != nil {
		t.Fatal(err)
	}
	if d := matmul.MaxAbsDiff(naive.C, msgr.C); d > 1e-9 {
		t.Errorf("m=1 result wrong by %g", d)
	}
	pvmRes, err := MatmulPVM(cm, p)
	if err != nil {
		t.Fatal(err)
	}
	if d := matmul.MaxAbsDiff(naive.C, pvmRes.C); d > 1e-9 {
		t.Errorf("m=1 pvm result wrong by %g", d)
	}
}

func TestMatmulValidatesParams(t *testing.T) {
	cm := lan.DefaultCostModel()
	if _, err := MatmulMessengers(cm, MatmulParams{M: 0, S: 5, Host: lan.SPARC110}); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := MatmulPVM(cm, MatmulParams{M: 2, S: 0, Host: lan.SPARC110}); err == nil {
		t.Error("s=0 should fail")
	}
}
