package mandel

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestEscapeKnownPoints(t *testing.T) {
	tests := []struct {
		cr, ci float64
		want   int // escape iteration (or max for interior)
	}{
		{0, 0, 100},   // origin never escapes
		{-1, 0, 100},  // period-2 interior point
		{2, 2, 1},     // far outside: z1 = c already has |z| > 2
		{0.2, 0, 100}, // inside the main cardioid (cusp at 0.25)
		{-2.1, 0, 1},  // just left of the set, |c| > 2
	}
	for _, tt := range tests {
		if got := Escape(tt.cr, tt.ci, 100); got != tt.want {
			t.Errorf("Escape(%v, %v) = %d, want %d", tt.cr, tt.ci, got, tt.want)
		}
	}
}

func TestEscapeMonotoneInMaxIter(t *testing.T) {
	// A point that escapes at iteration n escapes at the same n for any
	// larger cap.
	cr, ci := 0.26, 0.0 // escapes slowly, near the cardioid cusp
	n1 := Escape(cr, ci, 1000)
	if n1 == 1000 {
		t.Skip("test point did not escape; adjust")
	}
	if n2 := Escape(cr, ci, 2000); n2 != n1 {
		t.Errorf("escape changed with cap: %d vs %d", n1, n2)
	}
}

func TestBlocksCoverImageExactly(t *testing.T) {
	for _, tt := range []struct{ w, h, g int }{
		{320, 320, 8}, {320, 320, 32}, {100, 70, 3}, {7, 7, 8},
	} {
		blocks := Blocks(tt.w, tt.h, tt.g)
		if len(blocks) != tt.g*tt.g {
			t.Errorf("%dx%d/%d: %d blocks", tt.w, tt.h, tt.g, len(blocks))
		}
		covered := make([]bool, tt.w*tt.h)
		for _, b := range blocks {
			for y := b.Y0; y < b.Y0+b.H; y++ {
				for x := b.X0; x < b.X0+b.W; x++ {
					if x < 0 || x >= tt.w || y < 0 || y >= tt.h {
						t.Fatalf("block %v out of bounds", b)
					}
					if covered[y*tt.w+x] {
						t.Fatalf("pixel (%d,%d) covered twice", x, y)
					}
					covered[y*tt.w+x] = true
				}
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("%dx%d/%d: pixel %d not covered", tt.w, tt.h, tt.g, i)
			}
		}
	}
}

func TestBlockAssemblyMatchesSequential(t *testing.T) {
	const w, h, iters = 64, 64, 128
	seq, seqIters := ComputeImage(PaperRegion, w, h, iters)

	img := NewImage(w, h)
	var total int64
	for _, b := range Blocks(w, h, 4) {
		data, it := ComputeBlock(PaperRegion, w, h, b, iters)
		total += it
		if err := img.SetBlock(b, data); err != nil {
			t.Fatal(err)
		}
	}
	if img.Checksum() != seq.Checksum() {
		t.Error("block-assembled image differs from sequential image")
	}
	if total != seqIters {
		t.Errorf("iteration counts differ: %d vs %d", total, seqIters)
	}
	if total <= int64(w*h) {
		t.Errorf("implausible iteration total %d", total)
	}
}

func TestSetBlockValidatesSize(t *testing.T) {
	img := NewImage(8, 8)
	if err := img.SetBlock(Block{W: 2, H: 2}, make([]byte, 3)); err == nil {
		t.Error("short data should fail")
	}
}

func TestChecksumDistinguishesImages(t *testing.T) {
	a := NewImage(4, 4)
	b := NewImage(4, 4)
	if a.Checksum() != b.Checksum() {
		t.Error("equal images must have equal checksums")
	}
	b.Pix[5] = 1
	if a.Checksum() == b.Checksum() {
		t.Error("different images should differ")
	}
}

func TestPropBlockComputationIsDeterministic(t *testing.T) {
	f := func(seed uint8) bool {
		g := int(seed%4) + 1
		blocks := Blocks(32, 32, g)
		b := blocks[int(seed)%len(blocks)]
		d1, i1 := ComputeBlock(PaperRegion, 32, 32, b, 64)
		d2, i2 := ComputeBlock(PaperRegion, 32, 32, b, 64)
		return i1 == i2 && bytes.Equal(d1, d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockStringer(t *testing.T) {
	if got := (Block{X0: 1, Y0: 2, W: 3, H: 4}).String(); got != "3x4@(1,2)" {
		t.Errorf("String = %q", got)
	}
}

// direct is the oracle for ComputeBlock: the kernel on every pixel of the
// block, in or out of the image, with no table anywhere.
func direct(reg Region, width, height int, b Block, maxIter int) ([]byte, int64) {
	var pix []byte
	var iters int64
	dx := (reg.XMax - reg.XMin) / float64(width)
	dy := (reg.YMax - reg.YMin) / float64(height)
	for y := b.Y0; y < b.Y0+b.H; y++ {
		for x := b.X0; x < b.X0+b.W; x++ {
			n := Escape(reg.XMin+(float64(x)+0.5)*dx, reg.YMin+(float64(y)+0.5)*dy, maxIter)
			pix = binary.LittleEndian.AppendUint16(pix, uint16(n))
			iters += int64(n)
			if n < maxIter {
				iters++
			}
		}
	}
	return pix, iters
}

func checkBlock(t *testing.T, reg Region, w, h int, b Block, maxIter int) {
	t.Helper()
	got, gotIters := ComputeBlock(reg, w, h, b, maxIter)
	want, wantIters := direct(reg, w, h, b, maxIter)
	if !bytes.Equal(got, want) || gotIters != wantIters {
		t.Errorf("%dx%d maxIter %d block %v: %d iterations, want %d; bytes equal: %v",
			w, h, maxIter, b, gotIters, wantIters, bytes.Equal(got, want))
	}
}

// freshTables empties the process's tables for the length of a test and
// returns a function reporting how many there are and what they hold.
func freshTables(t *testing.T) func() (n, used int) {
	swap := func(m map[imageKey]*table, used int) (map[imageKey]*table, int) {
		tables.mu.Lock()
		defer tables.mu.Unlock()
		m, tables.m = tables.m, m
		used, tables.used = tables.used, used
		return m, used
	}
	m, used := swap(nil, 0)
	t.Cleanup(func() { swap(m, used) })
	return func() (int, int) {
		tables.mu.Lock()
		defer tables.mu.Unlock()
		return len(tables.m), tables.used
	}
}

func TestTableMatchesDirect(t *testing.T) {
	stored := freshTables(t)
	rng := rand.New(rand.NewSource(22))
	const images = 12
	for i := 0; i < images; i++ {
		reg := PaperRegion
		if i > 0 {
			cx, cy := -2+2.4*rng.Float64(), -1.2+2.4*rng.Float64()
			rx, ry := 0.01+rng.Float64(), 0.01+rng.Float64()
			reg = Region{XMin: cx - rx, YMin: cy - ry, XMax: cx + rx, YMax: cy + ry}
		}
		w, h, maxIter := 33+rng.Intn(64), 33+rng.Intn(64), 2+rng.Intn(300)
		// Every block of the three paper grids and the whole image twice
		// over, and blocks that straddle them, in no order: most pixels
		// are asked for cold once and warm many times, some blocks are
		// part cold, part warm.
		var blocks []Block
		for rep := 0; rep < 2; rep++ {
			for _, g := range []int{8, 16, 32} {
				blocks = append(blocks, Blocks(w, h, g)...)
			}
			blocks = append(blocks, Block{W: w, H: h})
		}
		for j := 0; j < 40; j++ {
			x0, y0 := rng.Intn(w), rng.Intn(h)
			blocks = append(blocks, Block{X0: x0, Y0: y0, W: rng.Intn(w - x0 + 1), H: rng.Intn(h - y0 + 1)})
		}
		rng.Shuffle(len(blocks), func(a, b int) { blocks[a], blocks[b] = blocks[b], blocks[a] })
		for _, b := range blocks {
			checkBlock(t, reg, w, h, b, maxIter)
		}
	}
	if n, _ := stored(); n != images {
		t.Errorf("%d tables for %d images", n, images)
	}
}

func TestTableBypass(t *testing.T) {
	stored := freshTables(t)
	mid := Block{X0: 10, Y0: 10, W: 8, H: 8}
	for _, tt := range []struct {
		name    string
		w, h    int
		b       Block
		maxIter int
		tabled  bool
	}{
		{"left of the image", 32, 32, Block{X0: -3, Y0: 2, W: 8, H: 8}, 64, false},
		{"above", 32, 32, Block{X0: 2, Y0: -3, W: 8, H: 8}, 64, false},
		{"right", 32, 32, Block{X0: 28, Y0: 2, W: 8, H: 8}, 64, false},
		{"below", 32, 32, Block{X0: 2, Y0: 28, W: 8, H: 8}, 64, false},
		{"all outside", 32, 32, Block{X0: 40, Y0: 40, W: 2, H: 2}, 64, false},
		{"empty image", 0, 0, Block{}, 64, false},
		{"maxIter is the sentinel", 4, 4, Block{W: 4, H: 4}, notYet, false},
		{"maxIter over the sentinel", 4, 4, Block{W: 4, H: 4}, notYet + 5, false},
		{"maxIter under the sentinel", 4, 4, Block{W: 4, H: 4}, notYet - 1, true},
		// One image too big for the whole cap, then one that leaves 1904
		// of it: not enough for 64x64, enough for 32x32.
		{"image over the cap", 2048, 2048, mid, 64, false},
		{"image under the cap", 2048, 2047, mid, 64, true},
		{"cap used up", 64, 64, mid, 64, false},
		{"what is left of the cap", 32, 32, mid, 64, true},
	} {
		n, used := stored()
		for rep := 0; rep < 2; rep++ {
			checkBlock(t, PaperRegion, tt.w, tt.h, tt.b, tt.maxIter)
		}
		wantN, wantUsed := n, used
		if tt.tabled {
			wantN, wantUsed = n+1, used+tt.w*tt.h+tableOverhead
		}
		if n, used := stored(); n != wantN || used != wantUsed || used > tableCap {
			t.Errorf("%s: %d tables holding %d, want %d holding %d", tt.name, n, used, wantN, wantUsed)
		}
	}
}

// Eight goroutines ask for overlapping blocks of one cold image, each in
// its own order, so that a block is cold for one, warm for the next and
// half-filled under a third. Run with -race -cpu 2,4.
func TestTableConcurrent(t *testing.T) {
	freshTables(t)
	const w, h, maxIter = 96, 80, 200
	var blocks []Block
	for _, g := range []int{1, 3, 8, 16} {
		blocks = append(blocks, Blocks(w, h, g)...)
	}
	type result struct {
		pix   []byte
		iters int64
	}
	want := make([]result, len(blocks))
	for i, b := range blocks {
		want[i].pix, want[i].iters = direct(PaperRegion, w, h, b, maxIter)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(seed)).Perm(len(blocks)) {
				pix, iters := ComputeBlock(PaperRegion, w, h, blocks[i], maxIter)
				if !bytes.Equal(pix, want[i].pix) || iters != want[i].iters {
					t.Errorf("goroutine %d, block %v: %d iterations, want %d; bytes equal: %v",
						seed, blocks[i], iters, want[i].iters, bytes.Equal(pix, want[i].pix))
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestComputeBlockResultIsTheCallers(t *testing.T) {
	freshTables(t)
	b := Block{X0: 4, Y0: 4, W: 16, H: 16}
	for rep := 0; rep < 3; rep++ { // cold, then warm twice
		pix, _ := ComputeBlock(PaperRegion, 32, 32, b, 64)
		for i := range pix {
			pix[i] ^= 0xff
		}
		checkBlock(t, PaperRegion, 32, 32, b, 64)
	}
}
