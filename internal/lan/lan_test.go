package lan

import (
	"testing"

	"messengers/internal/faults"
	"messengers/internal/obs"
	"messengers/internal/sim"
)

// observed returns a one-host cluster on k with a registry attached.
func observed(k *sim.Kernel, cm *CostModel) (*Cluster, *obs.Metrics) {
	c := NewCluster(k, cm, 1, SPARC110)
	m := obs.NewMetrics()
	c.Observe(nil, m)
	return c, m
}

func TestWireTime(t *testing.T) {
	cm := DefaultCostModel()
	oneFrame := cm.WireTime(100)
	wantOne := cm.FrameOverhead + 100*cm.WirePerByte
	if oneFrame != wantOne {
		t.Errorf("WireTime(100) = %v, want %v", oneFrame, wantOne)
	}
	twoFrames := cm.WireTime(cm.FramePayload + 1)
	if twoFrames <= oneFrame {
		t.Error("larger message should take longer")
	}
	if got := cm.WireTime(2 * cm.FramePayload); got != 2*cm.FrameOverhead+sim.Time(2*cm.FramePayload)*cm.WirePerByte {
		t.Errorf("WireTime(2 frames) = %v", got)
	}
	if got := cm.WireTime(0); got != cm.FrameOverhead {
		t.Errorf("WireTime(0) = %v, want one frame overhead", got)
	}
}

func TestFrags(t *testing.T) {
	cm := DefaultCostModel()
	tests := []struct {
		bytes, want int
	}{
		{0, 1}, {1, 1}, {cm.PVMFragSize, 1}, {cm.PVMFragSize + 1, 2}, {3 * cm.PVMFragSize, 3},
	}
	for _, tt := range tests {
		if got := cm.Frags(tt.bytes); got != tt.want {
			t.Errorf("Frags(%d) = %d, want %d", tt.bytes, got, tt.want)
		}
	}
}

func TestHostSpecScale(t *testing.T) {
	if got := SPARC110.scale(1000); got != 1000 {
		t.Errorf("110MHz scale = %v, want identity", got)
	}
	if got := SPARC170.scale(1700); got != 1100 {
		t.Errorf("170MHz scale(1700) = %v, want 1100", got)
	}
	zero := HostSpec{}
	if got := zero.scale(42); got != 42 {
		t.Errorf("zero-MHz spec should not scale, got %v", got)
	}
}

func TestMacCostMonotoneInBlockSize(t *testing.T) {
	cm := DefaultCostModel()
	prev := sim.Time(0)
	for _, s := range []int{10, 50, 100, 500, 1000, 1500} {
		c := cm.MacCost(s, SPARC110)
		if c < prev {
			t.Errorf("MacCost(%d) = %v decreased from %v", s, c, prev)
		}
		prev = c
	}
	// The penalty must stay bounded by (1 + MacMissX).
	max := sim.Time(float64(cm.MacBase) * (1 + SPARC110.MacMissX))
	if c := cm.MacCost(1<<14, SPARC110); c > max {
		t.Errorf("MacCost asymptote %v exceeds bound %v", c, max)
	}
}

func TestMacCostBlockVsNaiveGap(t *testing.T) {
	// The paper reports ~13% speedup from partitioning a 1500x1500
	// multiply into 500-blocks on a SPARCstation 5. The cost-curve ratio
	// should land in that neighborhood (exact figure checked in the
	// benchmark harness).
	cm := DefaultCostModel()
	ratio := float64(cm.MacCost(1500, SPARC110)) / float64(cm.MacCost(500, SPARC110))
	if ratio < 1.05 || ratio > 1.35 {
		t.Errorf("naive/block cost ratio = %.3f, want roughly 1.1-1.3", ratio)
	}
}

func TestBusSerializesTransmissions(t *testing.T) {
	k := sim.New()
	cm := DefaultCostModel()
	c, m := observed(k, cm)
	b := c.Bus
	var first, second sim.Time
	b.Transmit(1000, func() { first = k.Now() })
	b.Transmit(1000, func() { second = k.Now() })
	k.Run()
	tx := cm.WireTime(1000)
	if first != tx+cm.PropDelay {
		t.Errorf("first delivery at %v, want %v", first, tx+cm.PropDelay)
	}
	if second != 2*tx+cm.PropDelay {
		t.Errorf("second delivery at %v, want %v (serialized)", second, 2*tx+cm.PropDelay)
	}
	if m.CounterValue("bus.msgs") != 2 || m.CounterValue("bus.bytes") != 2000 ||
		m.CounterValue("bus.busy_ns") != int64(2*tx) {
		t.Errorf("bus counters = %v", m.Snapshot())
	}
}

func TestHostExecSerializes(t *testing.T) {
	k := sim.New()
	c, m := observed(k, DefaultCostModel())
	h := c.Hosts[0]
	var done1, done2 sim.Time
	h.Exec(100, func() { done1 = k.Now() })
	h.Exec(50, func() { done2 = k.Now() })
	k.Run()
	if done1 != 100 || done2 != 150 {
		t.Errorf("done1=%v done2=%v, want 100, 150", done1, done2)
	}
	if busy := m.CounterValue("host.0.busy_ns"); busy != 150 {
		t.Errorf("host.0.busy_ns = %v", busy)
	}
	if got := h.Exec(-5, nil); got != k.Now()+150-150 {
		// negative cost clamps to zero: completes "now" given free CPU
		t.Errorf("negative cost Exec returned %v", got)
	}
}

func TestHostExecScaled(t *testing.T) {
	k := sim.New()
	h := &Host{ID: 0, Spec: SPARC170, k: k}
	done := h.ExecScaled(1700, nil)
	if done != 1100 {
		t.Errorf("ExecScaled done = %v, want 1100", done)
	}
}

func TestHostExecProcBlocksAndContends(t *testing.T) {
	k := sim.New()
	defer k.Shutdown()
	h := &Host{ID: 0, Spec: SPARC110, k: k}
	var order []string
	k.Spawn("a", func(p *sim.Proc) {
		h.ExecProc(p, 100)
		order = append(order, "a")
	})
	k.Spawn("b", func(p *sim.Proc) {
		h.ExecProc(p, 100)
		order = append(order, "b")
	})
	end := k.Run()
	if end != 200 {
		t.Errorf("two 100ns jobs on one CPU should end at 200, got %v", end)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("order = %v", order)
	}
}

// clock is a Receiver that notes when, where and what each delivery was.
type clock struct {
	k    *sim.Kernel
	at   []sim.Time
	dst  []int
	seen []int
}

func (r *clock) Receive(dst int, p *int) {
	r.at = append(r.at, r.k.Now())
	r.dst = append(r.dst, dst)
	r.seen = append(r.seen, *p)
}

func TestClusterSendRemoteAndLocal(t *testing.T) {
	k := sim.New()
	cm := DefaultCostModel()
	c := NewCluster(k, cm, 2, SPARC110)
	r := &clock{k: k}
	msg := 7
	NewCourier[int](c, r).Send(0, 1, 1000, 10, 20, &msg)
	msg = 8 // Send copied the payload
	k.Run()
	want := sim.Time(10) + cm.WireTime(1000) + cm.PropDelay + 20
	if len(r.at) != 1 || r.at[0] != want || r.dst[0] != 1 || r.seen[0] != 7 {
		t.Errorf("remote deliveries at %v to %v of %v, want one at %v to 1 of 7", r.at, r.dst, r.seen, want)
	}

	k2 := sim.New()
	c2 := NewCluster(k2, cm, 2, SPARC110)
	m2 := obs.NewMetrics()
	c2.Observe(nil, m2)
	r2 := &clock{k: k2}
	NewCourier[int](c2, r2).Send(1, 1, 1000, 10, 20, &msg)
	k2.Run()
	if localAt := r2.at[0]; localAt != 30 {
		t.Errorf("local delivery at %v, want 30 (no bus)", localAt)
	}
	if m2.CounterValue("bus.msgs") != 0 {
		t.Error("local send must not touch the bus")
	}
}

func TestNewClusterValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCluster(0 hosts) should panic")
		}
	}()
	NewCluster(sim.New(), DefaultCostModel(), 0, SPARC110)
}

func TestFastEthernet(t *testing.T) {
	cm := DefaultCostModel()
	fast := cm.FastEthernet()
	if fast.WirePerByte != cm.WirePerByte/10 {
		t.Errorf("fast wire per byte = %v", fast.WirePerByte)
	}
	if fast.WireTime(100000) >= cm.WireTime(100000) {
		t.Error("fast segment must be faster")
	}
	// The original is untouched.
	if cm.WirePerByte != DefaultCostModel().WirePerByte {
		t.Error("FastEthernet mutated the original model")
	}
	// CPU-side constants are unchanged: only the segment speed differs.
	if fast.MsgrHopFixed != cm.MsgrHopFixed || fast.PVMFragFixed != cm.PVMFragFixed {
		t.Error("FastEthernet must only change the wire")
	}
}

func TestCostModelCloneIsIndependent(t *testing.T) {
	cm := DefaultCostModel()
	cl := cm.Clone()
	cl.PVMWindow = 99
	if cm.PVMWindow == 99 {
		t.Error("Clone must not alias the original")
	}
	if cm.String() == "" {
		t.Error("String should describe the model")
	}
}

func TestMandelCost(t *testing.T) {
	cm := DefaultCostModel()
	got := cm.MandelCost(1000, 10, SPARC110)
	want := 1000*cm.MandelPerIter + 10*cm.MandelPerPixel
	if got != want {
		t.Errorf("MandelCost = %v, want %v", got, want)
	}
	// Costs are 110 MHz-calibrated; the host scales them exactly once
	// (ScaleFor for sequential runs, the host executor otherwise).
	if cm.MandelCost(1000, 10, SPARC170) != got {
		t.Error("MandelCost must not pre-scale by host clock")
	}
	if cm.ScaleFor(SPARC170, 1700) != 1100 {
		t.Errorf("ScaleFor = %v", cm.ScaleFor(SPARC170, 1700))
	}
}

// TestExecProcAllocatesNothing: a process charging compute to its host is
// woken by its own Unpark, bound once at Spawn, not by a closure per charge.
func TestExecProcAllocatesNothing(t *testing.T) {
	k := sim.New()
	defer k.Shutdown()
	h := NewCluster(k, DefaultCostModel(), 1, SPARC110).Hosts[0]
	charges := 0
	k.Spawn("worker", func(p *sim.Proc) {
		for {
			h.ExecProc(p, 100)
			charges++
		}
	})
	k.Step() // the start: the first charge
	charge := func() {
		k.Step() // the CPU is done: wake the process
		k.Step() // it resumes and charges again
	}
	if n := testing.AllocsPerRun(100, charge); n != 0 {
		t.Errorf("a compute charge allocates %v times, want 0", n)
	}
	if charges != 101 {
		t.Errorf("%d charges completed, want 101", charges)
	}
}

// mutator is a Receiver that notes each payload and then overwrites it, as
// a handler may overwrite the message it borrows.
type mutator struct{ seen []int }

func (r *mutator) Receive(_ int, p *int) {
	r.seen = append(r.seen, *p)
	*p = -1
}

// TestDupDeliversACopy: a duplicated transfer is a second record holding
// the payload as it was sent, so neither delivery sees what the other did
// to its copy, and each record goes back to the pool once.
func TestDupDeliversACopy(t *testing.T) {
	k := sim.New()
	c := NewCluster(k, DefaultCostModel(), 2, SPARC110)
	c.SetFaultHook(faults.NewInjector(&faults.Plan{Seed: 1, Dup: 1}, nil, nil).Decide)
	r := &mutator{}
	q := NewCourier[int](c, r)
	for i, msg := range []int{7, 8} {
		q.Send(0, 1, 100, 10, 20, &msg)
		k.Run()
		if want := []int{msg, msg}; len(r.seen) != 2*(i+1) || r.seen[2*i] != msg || r.seen[2*i+1] != msg {
			t.Fatalf("deliveries %v, want %v last", r.seen, want)
		}
		if len(q.free) != 2 || q.free[0] == q.free[1] {
			t.Fatalf("pool holds %d records after a duplicated transfer, want 2 distinct", len(q.free))
		}
	}
}
