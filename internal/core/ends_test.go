package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"messengers/internal/bytecode"
	"messengers/internal/compile"
	"messengers/internal/logical"
	"messengers/internal/obs"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// budgetGate is an admission gate with one step allowance shared by every
// session: a Messenger that runs past it is evicted.
type budgetGate struct {
	left    atomic.Int64
	work    atomic.Int64 // the sessions' live count, as reported by the daemons
	evicted atomic.Int64
}

func (g *budgetGate) Session(string, uint64) SessionGate { return g }

func (g *budgetGate) SessionWork(_ string, _ uint64, delta int) { g.work.Add(int64(delta)) }

func (g *budgetGate) Allowance() int64 { return g.left.Load() }

func (g *budgetGate) Charge(n int64) { g.left.Add(-n) }

func (g *budgetGate) ChargeHop(sim.Time, int) error { return nil }

func (g *budgetGate) CheckMem(int) error { return nil }

func (g *budgetGate) Evicted(error) { g.evicted.Add(1) }

// endsRun is one 3-daemon run with recovery on that sends Messengers to
// every way a Messenger's life ends.
type endsRun struct {
	sys  *System
	met  *obs.Metrics
	tr   *obs.Tracer
	gate *budgetGate
}

func endsOptions(met *obs.Metrics, tr *obs.Tracer) []Option {
	return []Option{WithRecovery(RecoveryConfig{}), WithMetrics(met), WithTracer(tr)}
}

// start builds the network and releases the Messengers. In the simulated
// run their ends are:
//   - finish: `finisher`;
//   - die: `lost` (no link matches), `traveler` (its destination b is
//     deleted while it is in flight), `demolisher` (the delete traversal
//     that deleted b leaves a a singleton, and a goes with it), and
//     `doomer` (its transfer to the crashed daemon 2 is respawned to a
//     node nothing adopted);
//   - error: `faulty` (its native fails) and an injection whose program
//     is not in the registry;
//   - evict: `hog` (past the gate's step allowance).
//
// The caller tells daemon 0 of daemon 2's death once `doomer` has shipped.
func (r *endsRun) start(t *testing.T) {
	t.Helper()
	sys := r.sys
	r.gate = &budgetGate{}
	r.gate.left.Store(64)
	sys.SetAdmission(r.gate)
	if err := sys.BuildNetwork(NetSpec{
		Nodes: []NetNode{{Name: "a", Daemon: 0}, {Name: "b", Daemon: 1}, {Name: "x", Daemon: 0}, {Name: "c", Daemon: 2}},
		Links: []NetLink{{A: "a", B: "b", Name: "go"}, {A: "x", B: "c", Name: "doom"}},
	}); err != nil {
		t.Fatal(err)
	}
	sys.RegisterNative("boom", func(*NativeCtx, []value.Value) (value.Value, error) {
		return value.Nil(), errors.New("boom")
	})
	for _, p := range [][2]string{
		{"finisher", `x = 1;`},
		{"lost", `hop(ll = "nowhere");`},
		{"traveler", `hop(ll = "go");`},
		{"demolisher", `delete(ll = "go");`},
		{"doomer", `delete(ll = "doom");`},
		{"faulty", `x = boom();`},
	} {
		register(t, sys, p[0], p[1])
	}
	hog, err := compile.Compile("hog", `for (i = 0; i < 100000; i++) { x = i; }`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Register(hog)
	sys.Crash(2)
	for _, in := range []struct {
		d            int
		script, node string
	}{
		{0, "finisher", logical.InitName}, {0, "lost", logical.InitName},
		{0, "traveler", "a"}, {1, "demolisher", "b"},
		{0, "doomer", "x"}, {1, "faulty", logical.InitName},
	} {
		if err := sys.InjectAt(in.d, in.script, in.node, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.InjectSession(1, hog, "", nil, "tenant", 1); err != nil {
		t.Fatal(err)
	}
	sys.workAdded(1) // the slot the unrestorable injection releases
	sys.Do(0, func(d *Daemon) {
		d.HandleMsg(&Msg{Kind: MsgInject, From: 0, ProgHash: bytecode.Hash{7}, MsgrID: 1<<63 | 1000})
	})
}

// check asserts that every end is counted once: for each kind the summed
// Stats field, the registry counter and the trace instants agree, and
// nothing is left live. want, if non-nil, pins the count of each kind.
func (r *endsRun) check(t *testing.T, st Stats, want *[numEnds]int64) {
	t.Helper()
	kinds := [numEnds]struct {
		stat          int64
		counter, name string
	}{
		endFinish: {st.Finished, "msgr.finished", "terminate"},
		endDie:    {st.Died, "msgr.died", "die"},
		endError:  {st.Errors, "msgr.errors", "error"},
		endEvict:  {st.Evicted, "msgr.evicted", "evict"},
	}
	traced := map[string]int64{}
	for _, ev := range r.tr.Events() {
		if ev.Cat == "msgr" {
			traced[ev.Name]++
		}
	}
	var total int64
	for how, k := range kinds {
		total += k.stat
		if c := r.met.CounterValue(k.counter); k.stat != c || traced[k.name] != c {
			t.Errorf("%s: Stats %d, %s %d, %d trace instants; want all equal", k.name, k.stat, k.counter, c, traced[k.name])
		}
		if want != nil && k.stat != want[how] {
			t.Errorf("%s: %d ends, want %d", k.name, k.stat, want[how])
		}
	}
	if total != 8 {
		t.Errorf("%d ends of 8 Messengers", total)
	}
	if n := int64(len(r.sys.Errors())); n != st.Errors {
		t.Errorf("%d recorded errors, Stats.Errors %d", n, st.Errors)
	}
	if r.gate.evicted.Load() != st.Evicted || r.gate.work.Load() != 0 {
		t.Errorf("gate saw %d evictions (Stats %d) and %d live", r.gate.evicted.Load(), st.Evicted, r.gate.work.Load())
	}
	if live := r.sys.Live(); live != 0 {
		t.Errorf("live = %d", live)
	}
}

// TestEveryEndCountedOnce reaches every way a Messenger's life ends on the
// simulated engine, where each kind's count is fixed.
func TestEveryEndCountedOnce(t *testing.T) {
	met, tr := obs.NewMetrics(), obs.NewTracer()
	k, sys := simSystem(t, 3, endsOptions(met, tr)...)
	r := &endsRun{sys: sys, met: met, tr: tr}
	r.start(t)
	// By 50 ms doomer's transfer is on the wire, unacknowledged.
	k.At(50*sim.Millisecond, func() { sys.NotifyPeerDown(0, 2) })
	k.Run()
	if met.CounterValue("msgr.respawns") != 1 {
		t.Errorf("msgr.respawns = %d, want doomer's 1", met.CounterValue("msgr.respawns"))
	}
	r.check(t, sys.TotalStats(), &[numEnds]int64{endFinish: 1, endDie: 4, endError: 2, endEvict: 1})
}

// TestEveryEndCountedOnceChan is the same run on goroutine daemons, which
// end Messengers concurrently. Which of finish and die the traveler and
// doomer reach depends on the interleaving; the books must agree either
// way.
func TestEveryEndCountedOnceChan(t *testing.T) {
	met, tr := obs.NewMetrics(), obs.NewTracer()
	sys := chanSystem(t, 3, endsOptions(met, tr)...)
	r := &endsRun{sys: sys, met: met, tr: tr}
	r.start(t)
	sys.NotifyPeerDown(0, 2)
	done := make(chan struct{})
	go func() {
		sys.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("system did not quiesce (live=%d)", sys.Live())
	}
	var st Stats
	for d := 0; d < sys.NumDaemons(); d++ {
		ch := make(chan Stats, 1)
		sys.Do(d, func(d *Daemon) { ch <- d.Stats })
		s := <-ch
		st.Finished += s.Finished
		st.Died += s.Died
		st.Errors += s.Errors
		st.Evicted += s.Evicted
	}
	r.check(t, st, nil)
}
