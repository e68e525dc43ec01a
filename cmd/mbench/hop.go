package main

import (
	"fmt"
	"math/rand"
	"time"

	"messengers"
	"messengers/internal/obs"
	"messengers/internal/value"
	"messengers/internal/wire"
)

// walkerSrc is the mload walker: stamp the node, hop on. With scalar state
// the fixed per-hop cost (segment entry and exit, snapshot, frame, syscall,
// exec-lane wake, restore) is nearly all the work.
const walkerSrc = `
	for (k = 0; k < hops; k++) {
		node.visits = node.visits + 1;
		hop(ll = "ring", ldir = +);
	}
`

// blockWalkerSrc is the same loop carrying a matrix. Each hop writes one
// diagonal element, so no two snapshots are byte-identical, and the final
// diagonal sum is left at the last node for the checksum.
const blockWalkerSrc = `
	for (k = 0; k < hops; k++) {
		node.visits = node.visits + 1;
		d = k % n;
		matset(blk, d, d, matget(blk, d, d) + 1.0);
		hop(ll = "ring", ldir = +);
	}
	s = 0.0;
	for (d = 0; d < n; d++) { s = s + matget(blk, d, d); }
	node.diag = node.diag + s;
`

// hopShape is what distinguishes the three hop workloads.
type hopShape struct {
	matN     int // side of the carried matrix; 0 = scalar state only
	lapHops  int // hops of one serial lap (one Messenger in flight)
	warmLaps int // laps of the warm-up that ends set-up
	// inflight > 0 adds a throughput phase: rounds of that many Messengers
	// in flight, roundHops hops each. It takes the second half of the run.
	inflight, roundHops int
}

var (
	// 500 hops per lap put the inject and the wake-up of Wait under 1% of
	// a lap. The throughput phase exists because an outbox or batching
	// change can help 8 in flight and cost 1 in flight (1.39x against
	// 0.94x at PR 7), and both have to show.
	hopSmall = hopShape{lapHops: 500, warmLaps: 8, inflight: 8, roundHops: 2000}
	// 32 KB is inside the wire pool's size classes; 512 KB is the paper's
	// F12 block regime and above them.
	hop32k  = hopShape{matN: 64, lapHops: 100, warmLaps: 8}
	hop512k = hopShape{matN: 256, lapHops: 30, warmLaps: 4}
)

// hopSys is one set-up system of a hop workload with its books.
type hopSys struct {
	sys   *messengers.System
	shape hopShape
	rng   *rand.Rand
	blk   *value.Mat // the seed-filled payload every lap starts from
	diag0 float64    // its diagonal sum
	hops  int64      // hops injected since the system was built
	diag  float64    // diagonal sum the laps injected so far must leave behind
}

func (h *hopSys) close() { h.sys.Close() }

// newHopSys is the set-up: system, network, program, payload, warm-up laps.
func newHopSys(seed int64, shape hopShape, tcp bool, met *obs.Metrics, tr *obs.Tracer) (*hopSys, error) {
	src := walkerSrc
	if shape.matN > 0 {
		src = blockWalkerSrc
	}
	sys, err := newRing(tcp, met, tr, map[string]string{"walker": src})
	if err != nil {
		return nil, err
	}
	h := &hopSys{sys: sys, shape: shape, rng: rand.New(rand.NewSource(seed))}
	if n := shape.matN; n > 0 {
		h.blk = value.NewMat(n, n)
		for i := range h.blk.Data {
			// Small integers: every sum below is exact in float64.
			h.blk.Data[i] = float64(h.rng.Intn(1 << 20))
		}
		for d := 0; d < n; d++ {
			h.diag0 += h.blk.Data[d*n+d]
		}
	}
	for i := 0; i < shape.warmLaps; i++ {
		h.inject(shape.lapHops)
		h.sys.Wait()
	}
	return h, nil
}

// inject releases one walker of the given length at a seeded daemon.
func (h *hopSys) inject(hops int) {
	vars := map[string]value.Value{"hops": value.Int(int64(hops))}
	if h.blk != nil {
		vars["blk"] = value.Matrix(h.blk)
		vars["n"] = value.Int(int64(h.shape.matN))
		h.diag += h.diag0 + float64(hops)
	}
	d := h.rng.Intn(daemons)
	if err := h.sys.InjectAt(d, "walker", fmt.Sprintf("r%d", d), vars); err != nil {
		panic(err) // the script is registered and d is in range
	}
	h.hops += int64(hops)
}

// lap runs one serial lap and returns its wall time.
func (h *hopSys) lap(sp *spanRec) time.Duration {
	id := sp.id()
	t0 := time.Now()
	h.inject(h.shape.lapHops)
	t1 := time.Now()
	h.sys.Wait()
	t2 := time.Now()
	sp.add(0, "lap", id, 0, t0, t2)
	sp.add(0, "core.inject", sp.id(), id, t0, t1)
	sp.add(0, "core.wait", sp.id(), id, t1, t2)
	return t2.Sub(t0)
}

// round runs shape.inflight Messengers in flight, roundHops hops each.
func (h *hopSys) round(sp *spanRec) lapse {
	id := sp.id()
	t0 := time.Now()
	for i := 0; i < h.shape.inflight; i++ {
		h.inject(h.shape.roundHops)
	}
	h.sys.Wait()
	t1 := time.Now()
	sp.add(0, "round", id, 0, t0, t1)
	return lapse{float64(h.shape.inflight * h.shape.roundHops), t1.Sub(t0)}
}

// check holds the books against what the Messengers left in the nodes.
func (h *hopSys) check(out *outcome) {
	if got := nodeSum(h.sys, "visits"); got != float64(h.hops) {
		out.failf("sum of node.visits = %.0f, want %d hops", got, h.hops)
	}
	if h.blk != nil {
		if got := nodeSum(h.sys, "diag"); got != h.diag {
			out.failf("diagonal checksum = %.0f, want %.0f", got, h.diag)
		}
	}
	for _, err := range h.sys.Errors() {
		out.failf("runtime error: %v", err)
	}
}

func runHopSmall(e *env) (*outcome, error) { return runHop(e, hopSmall, true) }
func runHop32k(e *env) (*outcome, error)   { return runHop(e, hop32k, true) }
func runHop512k(e *env) (*outcome, error)  { return runHop(e, hop512k, true) }

// runHop measures one hop workload: serial laps for the latency samples,
// then (hop_small only) rounds of Messengers in flight for throughput.
func runHop(e *env, shape hopShape, tcp bool) (*outcome, error) {
	h, setups, err := repeatSetup(e.setups, func() (*hopSys, error) {
		return newHopSys(e.seed, shape, tcp, nil, nil)
	})
	if err != nil {
		return nil, err
	}
	defer h.close()
	out := &outcome{setups: setups, facts: map[string]float64{}}

	serial := e.budget
	if shape.inflight > 0 {
		serial /= 2
	}
	wire0, mem0, hops0 := wire.ReadStats(), memStart(), h.hops
	var laps []lapse
	for deadline := time.Now().Add(serial); len(laps) == 0 || time.Now().Before(deadline); {
		d := h.lap(e.spans)
		laps = append(laps, lapse{float64(shape.lapHops), d})
		out.opUS = append(out.opUS, float64(d.Nanoseconds())/1e3/float64(shape.lapHops))
	}
	serialHops := float64(h.hops - hops0)
	mallocs, bytes := mem0.stop()
	wire1 := wire.ReadStats()
	out.facts["allocs_per_hop"] = mallocs / serialHops
	out.facts["alloc_bytes_per_hop"] = bytes / serialHops
	out.facts["wire_bytes_per_hop"] = float64(wire1.BytesEncoded-wire0.BytesEncoded) / serialHops
	if gets := wire1.PoolGets - wire0.PoolGets; gets > 0 {
		out.facts["pool_hit_ratio"] = float64(wire1.PoolHits-wire0.PoolHits) / float64(gets)
	}
	out.rates = chunkRates(laps)

	if shape.inflight > 0 {
		var rounds []lapse
		for deadline := time.Now().Add(e.budget - serial); len(rounds) == 0 || time.Now().Before(deadline); {
			rounds = append(rounds, h.round(e.spans))
		}
		out.rates = chunkRates(rounds)
	}
	out.attempts = h.hops - hops0
	h.check(out)
	return out, nil
}
