package main

import (
	"sort"
	"time"
)

// percentile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is the
// rule the acceptance runs are judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := i * (len(s) + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*(len(s)+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run noise a bound has to clear.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if m < 0 {
		m = -m
	}
	return (q3 - q1) / m
}

// timeIt returns the nanoseconds one call of fn takes when the machine is
// quiet: it sizes a batch to about a millisecond, times batches until
// budget is spent, and takes the lower quartile of the batches. The sandbox
// slows down for hundreds of milliseconds at a time, which a median over a
// 40 ms probe cannot see past.
func timeIt(budget time.Duration, fn func()) float64 {
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if d := time.Since(t0); d >= time.Millisecond || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return percentile(per, quiet)
}

// quiet is the quantile the probes and the end-to-end figures are read at:
// the lower quartile of a time, the upper quartile of a rate.
const quiet = 0.25

// chunks is how many contiguous stretches a run's samples are cut into.
const chunks = 20

// cut splits n samples into at most chunks contiguous index ranges.
func cut(n int) [][2]int {
	k := chunks
	if n < k {
		k = n
	}
	out := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, [2]int{i * n / k, (i + 1) * n / k})
	}
	return out
}

// quietP50 is the end-to-end latency figure: the samples, in the order
// they were taken, are cut into chunks, and the lower quartile of the
// chunks' medians is reported. A plain median over the run moves by 10 to
// 20 % between runs on this sandbox, because the machine slows down for
// seconds at a time; the quieter chunks do not.
func quietP50(xs []float64) float64 {
	var meds []float64
	for _, c := range cut(len(xs)) {
		meds = append(meds, median(xs[c[0]:c[1]]))
	}
	return percentile(meds, quiet)
}

// lapse is one timed stretch of a closed loop: the ops it completed and
// the wall time until the next stretch began.
type lapse struct {
	ops  float64
	wall time.Duration
}

// chunkRates cuts a loop's lapses into chunks and returns each chunk's ops
// per second.
func chunkRates(ls []lapse) []float64 {
	var rates []float64
	for _, c := range cut(len(ls)) {
		var ops float64
		var wall time.Duration
		for _, l := range ls[c[0]:c[1]] {
			ops += l.ops
			wall += l.wall
		}
		rates = append(rates, ops/wall.Seconds())
	}
	return rates
}

// quietRate is the end-to-end throughput figure: the upper quartile of the
// chunks' rates.
func quietRate(rates []float64) float64 { return percentile(rates, 1-quiet) }
