// Package matmul implements the matrix kernels of the paper's second
// experiment (§3.2): the naive triple-loop multiply, the block-partitioned
// sequential multiply, and the block primitives (extract, install,
// multiply-accumulate) used by both the PVM and the MESSENGERS parallel
// implementations of the block algorithm.
package matmul

import (
	"fmt"
	"math"
	"math/rand"

	"messengers/internal/value"
)

// Random returns an n x n matrix with deterministic pseudo-random entries.
func Random(n int, seed int64) *value.Mat {
	r := rand.New(rand.NewSource(seed))
	m := value.NewMat(n, n)
	for i := range m.Data {
		m.Data[i] = r.Float64()*2 - 1
	}
	return m
}

// Naive computes C = A * B with the classic i-j-k triple loop — the paper's
// first sequential baseline.
func Naive(a, b *value.Mat) *value.Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matmul: %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := value.NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, sum)
		}
	}
	return c
}

// AddMul computes C += A * B (the block multiply-accumulate primitive).
// The k-j inner ordering streams B rows, which is also what makes the
// block version cache-friendly on real hardware.
func AddMul(c, a, b *value.Mat) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("matmul: addmul %dx%d += %dx%d * %dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n, m, p := a.Rows, a.Cols, b.Cols
	for i := 0; i < n; i++ {
		ci := c.Data[i*p : (i+1)*p]
		for k := 0; k < m; k++ {
			aik := a.Data[i*m+k]
			if aik == 0 {
				continue
			}
			bk := b.Data[k*p : (k+1)*p]
			for j := range bk {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// GetBlock extracts the s x s block (bi, bj) of a (block-row-major
// coordinates as in the paper: block [i,j] covers rows i*s..i*s+s-1).
func GetBlock(a *value.Mat, bi, bj, s int) *value.Mat {
	out := value.NewMat(s, s)
	for r := 0; r < s; r++ {
		src := a.Data[(bi*s+r)*a.Cols+bj*s:]
		copy(out.Data[r*s:(r+1)*s], src[:s])
	}
	return out
}

// SetBlock installs an s x s block at block coordinates (bi, bj) of a.
func SetBlock(a *value.Mat, bi, bj int, blk *value.Mat) {
	s := blk.Rows
	for r := 0; r < s; r++ {
		dst := a.Data[(bi*s+r)*a.Cols+bj*s:]
		copy(dst[:s], blk.Data[r*s:(r+1)*s])
	}
}

// BlockSequential computes C = A * B with the matrices partitioned into an
// m x m grid of blocks — the paper's second sequential baseline, which
// beats Naive on real hardware by improving cache locality.
func BlockSequential(a, b *value.Mat, m int) *value.Mat {
	n := a.Rows
	if n%m != 0 {
		panic(fmt.Sprintf("matmul: %d not divisible into %d blocks", n, m))
	}
	s := n / m
	c := value.NewMat(n, n)
	for bi := 0; bi < m; bi++ {
		for bj := 0; bj < m; bj++ {
			acc := value.NewMat(s, s)
			for bk := 0; bk < m; bk++ {
				ab := GetBlock(a, bi, bk, s)
				bb := GetBlock(b, bk, bj, s)
				AddMul(acc, ab, bb)
			}
			SetBlock(c, bi, bj, acc)
		}
	}
	return c
}

// MACs returns the multiply-accumulate count of an n^3 multiply (the
// quantity the simulation cost model charges for).
func MACs(n int) int64 { return int64(n) * int64(n) * int64(n) }

// MaxAbsDiff returns the largest absolute elementwise difference, for
// validating the parallel implementations against the sequential ones.
func MaxAbsDiff(a, b *value.Mat) float64 { //lint:deadcode test support: the matmul, pvm and apps tests compare products with it
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var max float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}
