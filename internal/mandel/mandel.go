// Package mandel implements the Mandelbrot-set workload of the paper's
// manager/worker experiment (§3.1.2): computing, for each pixel, the escape
// iteration of z' = z^2 + c over a region of the complex plane, with the
// image divided into a grid of blocks that workers pick up dynamically.
//
// Block results carry their total iteration count so the simulated cluster
// can charge CPU time for exactly the work that was actually performed.
//
// A pixel's escape count depends only on the image it belongs to, and the
// paper's figures measure one image per size at every grid and processor
// count under three systems. ComputeBlock therefore keeps, per image
// (region, width, height, maxIter), a table of the escape counts blocks
// have asked for so far and runs the kernel only on pixels not yet in it.
// What a block returns is rebuilt from the table: the same bytes and the
// same iteration sum the kernel would have produced, so the work a caller
// charges for is the work the block stands for, whether or not this
// process had to redo it. All tables together hold at most tableCap
// pixels; an image that does not fit is computed afresh every time.
package mandel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
)

// Region is a rectangle of the complex plane.
type Region struct {
	XMin, YMin, XMax, YMax float64
}

// PaperRegion is the region used throughout the paper's evaluation:
// (-2.0, -1.2, 0.4, 1.2).
var PaperRegion = Region{XMin: -2.0, YMin: -1.2, XMax: 0.4, YMax: 1.2}

// PaperColors is the paper's fixed color count (maximum iterations).
const PaperColors = 512

// Escape returns the first n with |z_n| > 2 for c = cr + ci*i, capped at
// maxIter (the pixel's color index).
func Escape(cr, ci float64, maxIter int) int {
	var zr, zi float64
	for n := 0; n < maxIter; n++ {
		zr2, zi2 := zr*zr, zi*zi
		if zr2+zi2 > 4 {
			return n
		}
		zr, zi = zr2-zi2+cr, 2*zr*zi+ci
	}
	return maxIter
}

// Block is a rectangular sub-image: pixels [X0, X0+W) x [Y0, Y0+H).
type Block struct {
	X0, Y0, W, H int
}

// String renders the block for logs.
func (b Block) String() string { return fmt.Sprintf("%dx%d@(%d,%d)", b.W, b.H, b.X0, b.Y0) }

// Blocks divides a width x height image into a grid x grid decomposition
// (the paper's 8x8, 16x16, and 32x32 grids). Edge blocks absorb remainders.
func Blocks(width, height, grid int) []Block {
	out := make([]Block, 0, grid*grid)
	for by := 0; by < grid; by++ {
		for bx := 0; bx < grid; bx++ {
			x0 := bx * width / grid
			x1 := (bx + 1) * width / grid
			y0 := by * height / grid
			y1 := (by + 1) * height / grid
			out = append(out, Block{X0: x0, Y0: y0, W: x1 - x0, H: y1 - y0})
		}
	}
	return out
}

// ComputeBlock computes a block's pixels. It returns the color indices
// encoded little-endian as 2 bytes per pixel (row-major within the block)
// and the total number of iterations executed — the quantity the cost model
// charges for. The slice is the caller's; pixels another block of the same
// image already computed come from that image's table, at the iteration
// count they cost then. Safe for concurrent use.
func ComputeBlock(reg Region, width, height int, b Block, maxIter int) ([]byte, int64) {
	pix := make([]byte, 2*b.W*b.H)
	t := tableFor(reg, width, height, b, maxIter)
	if t == nil {
		iters, _ := computeBlock(pix, reg, width, height, b, maxIter, nil, true)
		return pix, iters
	}
	t.mu.RLock()
	iters, ok := computeBlock(pix, reg, width, height, b, maxIter, t.n, false)
	t.mu.RUnlock()
	if !ok {
		t.mu.Lock()
		iters, _ = computeBlock(pix, reg, width, height, b, maxIter, t.n, true)
		t.mu.Unlock()
	}
	return pix, iters
}

// computeBlock is the pixel loop: it writes b's pixels to pix and returns
// their iteration sum. tab, when not nil, is the image's table: one escape
// count per pixel, row-major, notYet where no block has asked. A pixel tab
// does not have is computed, and stored if there is a tab; with fill unset
// the pass writes nothing to tab and gives up (ok false) at the first such
// pixel instead, which is what lets blocks already in the table be read by
// many goroutines at once.
func computeBlock(pix []byte, reg Region, width, height int, b Block, maxIter int, tab []uint16, fill bool) (iters int64, ok bool) {
	dx := (reg.XMax - reg.XMin) / float64(width)
	dy := (reg.YMax - reg.YMin) / float64(height)
	i := 0
	for y := b.Y0; y < b.Y0+b.H; y++ {
		ci := reg.YMin + (float64(y)+0.5)*dy
		for x := b.X0; x < b.X0+b.W; x++ {
			n := notYet
			if tab != nil {
				n = int(tab[y*width+x])
			}
			if n == notYet {
				if !fill {
					return 0, false
				}
				cr := reg.XMin + (float64(x)+0.5)*dx
				n = Escape(cr, ci, maxIter)
				if tab != nil {
					tab[y*width+x] = uint16(n)
				}
			}
			if n == maxIter {
				iters += int64(maxIter)
			} else {
				iters += int64(n + 1)
			}
			binary.LittleEndian.PutUint16(pix[i:], uint16(n))
			i += 2
		}
	}
	return iters, true
}

// notYet marks a table entry no block has asked for. Escape counts run up
// to maxIter, so only images with maxIter below it are tabled.
const notYet = math.MaxUint16

// tableCap bounds what all tables hold together, in pixels of 2 bytes
// (8 MiB), each table counting tableOverhead more for its key, header and
// map entry. The paper's Figures 4-7 are 320², 640² and 1280² pixels,
// 2.2 M in all.
const (
	tableCap      = 4 << 20
	tableOverhead = 64
)

// table holds the escape counts of one image. mu is held shared while a
// block is read out and exclusively while a block's missing pixels are
// filled in: cold blocks serialise, warm ones do not.
type table struct {
	mu sync.RWMutex
	n  []uint16
}

type imageKey struct {
	reg                    Region
	width, height, maxIter int
}

var tables struct {
	mu   sync.Mutex
	m    map[imageKey]*table
	used int // pixels and overheads of m's tables, at most tableCap
}

// tableFor returns the table of the image b is a block of, making it on
// first use, or nil when the block is to be computed without one: b reaches
// outside the image, maxIter does not leave room for notYet, or the image
// does not fit in what is left of tableCap.
func tableFor(reg Region, width, height int, b Block, maxIter int) *table {
	if maxIter >= notYet || b.W < 0 || b.H < 0 ||
		b.X0 < 0 || b.Y0 < 0 || b.X0+b.W > width || b.Y0+b.H > height {
		return nil
	}
	key := imageKey{reg, width, height, maxIter}
	tables.mu.Lock()
	defer tables.mu.Unlock()
	t := tables.m[key]
	if t == nil && width > 0 && height > 0 && width <= (tableCap-tableOverhead-tables.used)/height {
		t = &table{n: make([]uint16, width*height)}
		for i := range t.n {
			t.n[i] = notYet
		}
		if tables.m == nil {
			tables.m = make(map[imageKey]*table)
		}
		tables.m[key] = t
		tables.used += len(t.n) + tableOverhead
	}
	return t
}

// Image is an assembled width x height color-index image.
type Image struct {
	W, H int
	Pix  []uint16
}

// NewImage allocates a zeroed image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]uint16, w*h)}
}

// SetBlock installs a computed block (encoded as by ComputeBlock).
func (img *Image) SetBlock(b Block, data []byte) error {
	if len(data) != 2*b.W*b.H {
		return fmt.Errorf("mandel: block %v data is %d bytes, want %d", b, len(data), 2*b.W*b.H)
	}
	i := 0
	for y := b.Y0; y < b.Y0+b.H; y++ {
		for x := b.X0; x < b.X0+b.W; x++ {
			img.Pix[y*img.W+x] = binary.LittleEndian.Uint16(data[i:])
			i += 2
		}
	}
	return nil
}

// Checksum returns a content hash of the image for cross-implementation
// validation (MESSENGERS vs PVM vs sequential must agree exactly).
func (img *Image) Checksum() uint64 {
	h := fnv.New64a()
	var buf [2]byte
	for _, p := range img.Pix {
		binary.LittleEndian.PutUint16(buf[:], p)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// ComputeImage computes the whole image sequentially (the paper's
// sequential C baseline) and returns it with the total iteration count.
func ComputeImage(reg Region, width, height, maxIter int) (*Image, int64) {
	img := NewImage(width, height)
	data, iters := ComputeBlock(reg, width, height, Block{W: width, H: height}, maxIter)
	if err := img.SetBlock(Block{W: width, H: height}, data); err != nil {
		panic(err) // sizes are consistent by construction
	}
	return img, iters
}
