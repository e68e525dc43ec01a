package main

import (
	"fmt"
	"math/rand"
	"time"

	"messengers"
	"messengers/internal/value"
)

// mandelSrc is the cmd/mvm Mandelbrot inner loop (64 pixels x 50 fixed
// iterations, all state in Messenger variables), repeated reps times. ci
// comes from the seed. The count of pixels still bounded after 50
// iterations is what the Go reference kernel checks; adding the comparison
// instead of branching on it keeps the step count independent of the seed.
const mandelSrc = `
	for (r = 0; r < reps; r++) {
		px = 0;
		while (px < 64) {
			cr = px / 32.0 - 1.5;
			zr = 0.0; zi = 0.0; n = 0;
			while (n < 50) {
				t = zr*zr - zi*zi + cr;
				zi = 2.0*zr*zi + ci;
				zr = t;
				n = n + 1;
			}
			inside = inside + (zr*zr + zi*zi < 4.0);
			px = px + 1;
		}
		if (r % every == every - 1) {
			node.acc = node.acc + inside;
			inside = 0;
			hop(ll = "ring", ldir = +);
		}
	}
`

// matmulSrc is the cmd/mvm dense 16x16 multiply through the matget/matset
// builtins, repeated reps times. g comes from the seed; one diagonal
// element of each product goes into the checked sum.
const matmulSrc = `
	n = 16;
	for (r = 0; r < reps; r++) {
		a = matrix(n, n); b = matrix(n, n); c = matrix(n, n);
		i = 0;
		while (i < n) {
			j = 0;
			while (j < n) {
				matset(a, i, j, i + g*j);
				matset(b, i, j, i - j + 0.5);
				j = j + 1;
			}
			i = i + 1;
		}
		i = 0;
		while (i < n) {
			j = 0;
			while (j < n) {
				s = 0.0; k = 0;
				while (k < n) {
					s = s + matget(a, i, k) * matget(b, k, j);
					k = k + 1;
				}
				matset(c, i, j, s);
				j = j + 1;
			}
			i = i + 1;
		}
		d = r % n;
		inside = inside + matget(c, d, d);
		if (r % every == every - 1) {
			node.acc = node.acc + inside;
			inside = 0.0;
			a = nil; b = nil; c = nil;
			hop(ll = "ring", ldir = +);
		}
	}
`

// A session is sessionReps repetitions and hops every hopEvery of them, so
// a hop (about 2 us in process, by ownership transfer) stands against 1.5 M
// VM steps: dispatch is nearly all the work and the hop path nearly none.
const (
	sessionReps = 32
	hopEvery    = 16
	warmSess    = 4
)

// Step counts of one session, recorded from this tree. A change to the
// compiler or the lowering that alters them alters what the workload
// measures, and has to say so by changing these.
const (
	mandelSessionSteps = 3046139
	matmulSessionSteps = 3195561
)

// kernel is what distinguishes the two compute workloads.
type kernel struct {
	src   string
	steps int64
	// vars derives the seeded Messenger variables; want is the Go reference
	// of what one session adds to node.acc.
	vars func(rng *rand.Rand) map[string]value.Value
	want func(vars map[string]value.Value) float64
}

var mandelKernel = kernel{
	src: mandelSrc, steps: mandelSessionSteps,
	vars: func(rng *rand.Rand) map[string]value.Value {
		return map[string]value.Value{
			"ci":     value.Num(float64(rng.Intn(1024)) / 1024),
			"inside": value.Int(0),
		}
	},
	want: func(vars map[string]value.Value) float64 {
		return float64(sessionReps * mandelInside(vars["ci"].AsNum()))
	},
}

var matmulKernel = kernel{
	src: matmulSrc, steps: matmulSessionSteps,
	vars: func(rng *rand.Rand) map[string]value.Value {
		return map[string]value.Value{
			"g":      value.Num(1 + float64(rng.Intn(8))/4),
			"inside": value.Num(0),
		}
	},
	want: func(vars map[string]value.Value) float64 {
		var sum float64
		for r := 0; r < sessionReps; r++ {
			sum += matmulDiag(vars["g"].AsNum(), r%16)
		}
		return sum
	},
}

// mandelInside is the Go reference of one repetition of mandelSrc. The
// conversions keep a compiler from fusing a multiply into an add, which
// the VM never does.
func mandelInside(ci float64) int {
	inside := 0
	for px := 0; px < 64; px++ {
		cr := float64(px)/32.0 - 1.5
		zr, zi := 0.0, 0.0
		for n := 0; n < 50; n++ {
			t := float64(zr*zr) - float64(zi*zi) + cr
			zi = float64(float64(2.0*zr)*zi) + ci
			zr = t
		}
		if float64(zr*zr)+float64(zi*zi) < 4.0 {
			inside++
		}
	}
	return inside
}

// matmulDiag is the Go reference of element (d, d) of matmulSrc's product.
func matmulDiag(g float64, d int) float64 {
	s := 0.0
	for k := 0; k < 16; k++ {
		s += float64((float64(d) + float64(g*float64(k))) * (float64(k) - float64(d) + 0.5))
	}
	return s
}

// computeSys is one set-up system of a compute workload with its books.
type computeSys struct {
	sys *messengers.System
	k   kernel
	rng *rand.Rand
	acc float64 // what the sessions so far must have added to node.acc
}

func (c *computeSys) close() { c.sys.Close() }

func newComputeSys(e *env, k kernel) (*computeSys, error) {
	sys, err := newRing(false, nil, nil, map[string]string{"kernel": k.src})
	if err != nil {
		return nil, err
	}
	c := &computeSys{sys: sys, k: k, rng: rand.New(rand.NewSource(e.seed))}
	for i := 0; i < warmSess; i++ {
		c.session(nil)
	}
	return c, nil
}

// session runs one Messenger at a time, as the workload's name for it says.
func (c *computeSys) session(sp *spanRec) time.Duration {
	vars := c.k.vars(c.rng)
	c.acc += c.k.want(vars)
	vars["reps"] = value.Int(sessionReps)
	vars["every"] = value.Int(hopEvery)
	d := c.rng.Intn(daemons)
	id := sp.id()
	t0 := time.Now()
	if err := c.sys.InjectAt(d, "kernel", fmt.Sprintf("r%d", d), vars); err != nil {
		panic(err) // the script is registered and d is in range
	}
	t1 := time.Now()
	c.sys.Wait()
	t2 := time.Now()
	sp.add(0, "session", id, 0, t0, t2)
	sp.add(0, "core.inject", sp.id(), id, t0, t1)
	sp.add(0, "core.wait", sp.id(), id, t1, t2)
	return t2.Sub(t0)
}

func runComputeMandel(e *env) (*outcome, error) { return runCompute(e, mandelKernel) }
func runComputeMatmul(e *env) (*outcome, error) { return runCompute(e, matmulKernel) }

func runCompute(e *env, k kernel) (*outcome, error) {
	c, setups, err := repeatSetup(e.setups, func() (*computeSys, error) { return newComputeSys(e, k) })
	if err != nil {
		return nil, err
	}
	defer c.close()
	out := &outcome{setups: setups, facts: map[string]float64{}}

	steps0 := c.sys.TotalStats().Steps
	var sessions []lapse
	var measured int64
	for deadline := time.Now().Add(e.budget); measured == 0 || time.Now().Before(deadline); measured++ {
		d := c.session(e.spans)
		sessions = append(sessions, lapse{sessionReps, d})
		out.opUS = append(out.opUS, float64(d.Nanoseconds())/1e3/sessionReps)
	}
	steps := c.sys.TotalStats().Steps - steps0
	out.attempts = measured * sessionReps
	out.rates = chunkRates(sessions)
	out.facts["msteps_per_s"] = quietRate(out.rates) * float64(k.steps) / sessionReps / 1e6

	if steps != measured*k.steps {
		out.failf("%d VM steps over %d sessions, want %d per session", steps, measured, k.steps)
	}
	if got := nodeSum(c.sys, "acc"); got != c.acc {
		out.failf("sum of node.acc = %v, want %v from the Go reference kernel", got, c.acc)
	}
	for _, err := range c.sys.Errors() {
		out.failf("runtime error: %v", err)
	}
	return out, nil
}
