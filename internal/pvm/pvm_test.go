package pvm

import (
	"strings"
	"sync/atomic"
	"testing"

	"messengers/internal/lan"
	"messengers/internal/matmul"
	"messengers/internal/obs"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// simMachine builds a simulated PVM machine on n hosts. The cleanup shuts
// the kernel down.
func simMachine(t *testing.T, n int) (*sim.Kernel, *Machine) {
	t.Helper()
	k := sim.New()
	t.Cleanup(k.Shutdown)
	cluster := lan.NewCluster(k, lan.DefaultCostModel(), n, lan.SPARC110)
	return k, NewSimMachine(cluster)
}

func checkErrs(t *testing.T, m *Machine) {
	t.Helper()
	for _, err := range m.Errors() {
		t.Errorf("task error: %v", err)
	}
}

func TestSendRecvRoundTripSim(t *testing.T) {
	var got int64
	var gotBytes []byte
	k2, m2 := simMachine(t, 2)
	recvTID := m2.SpawnAt("receiver", 1, func(p *Proc) {
		b := p.Recv(AnySource, 7)
		got = p.UpkInt(b)
		gotBytes = p.UpkBytes(b)
		if b.Sender() == 0 || b.Tag() != 7 {
			t.Errorf("sender/tag = %d/%d", b.Sender(), b.Tag())
		}
	})
	m2.SpawnAt("sender", 0, func(p *Proc) {
		p.InitSend()
		p.PkInt(42)
		p.PkBytes([]byte("hello"))
		p.Send(recvTID, 7)
	})
	k2.Run()
	checkErrs(t, m2)
	if got != 42 || string(gotBytes) != "hello" {
		t.Errorf("got %d %q", got, gotBytes)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	k, m := simMachine(t, 2)
	var order []int
	recv := m.SpawnAt("r", 1, func(p *Proc) {
		// Receive tag 2 first even though tag 1 arrives first.
		b2 := p.Recv(AnySource, 2)
		order = append(order, b2.Tag())
		b1 := p.Recv(AnySource, 1)
		order = append(order, b1.Tag())
	})
	m.SpawnAt("s", 0, func(p *Proc) {
		p.InitSend()
		p.PkInt(1)
		p.Send(recv, 1)
		p.InitSend()
		p.PkInt(2)
		p.Send(recv, 2)
	})
	k.Run()
	checkErrs(t, m)
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("order = %v", order)
	}
}

func TestNRecv(t *testing.T) {
	k, m := simMachine(t, 2)
	var first, second bool
	recv := m.SpawnAt("r", 1, func(p *Proc) {
		first = p.NRecv(AnySource, AnyTag) != nil // nothing yet
		p.Recv(AnySource, 2)                      // the flag follows the data (FIFO)
		second = p.NRecv(AnySource, 1) != nil     // data already queued
	})
	m.SpawnAt("s", 0, func(p *Proc) {
		p.InitSend()
		p.PkInt(1)
		p.Send(recv, 1)
		p.InitSend()
		p.PkInt(2)
		p.Send(recv, 2)
	})
	k.Run()
	checkErrs(t, m)
	if first {
		t.Error("NRecv should find nothing at t=0")
	}
	if !second {
		t.Error("NRecv should find the data message queued before the flag")
	}
}

func TestSpawnParentAndKill(t *testing.T) {
	k, m := simMachine(t, 2)
	var childSaw TID
	var managerTID TID
	managerTID = m.SpawnAt("manager", 0, func(p *Proc) {
		if p.Parent() != NoParent {
			t.Errorf("root parent = %d", p.Parent())
		}
		child := p.Spawn("worker", 1, func(w *Proc) {
			childSaw = w.Parent()
			// Worker waits forever; the manager kills it.
			w.Recv(AnySource, AnyTag)
			t.Error("worker should have been killed in Recv")
		})
		p.Compute(sim.Millisecond)
		p.Kill(child)
	})
	k.Run()
	checkErrs(t, m)
	if childSaw != managerTID {
		t.Errorf("child's parent = %d, want %d", childSaw, managerTID)
	}
	if k.Parked() != 0 {
		t.Errorf("parked procs remain: %d", k.Parked())
	}
}

// TestShutdownUnwindsLiveTasksSilently: a run cut short by Kernel.Shutdown,
// with one task parked in Recv and one waiting out a Compute, records no
// task error — the kernel's unwinding is not a panic in the task.
func TestShutdownUnwindsLiveTasksSilently(t *testing.T) {
	k, m := simMachine(t, 2)
	unwound := 0
	m.SpawnAt("waiter", 0, func(p *Proc) {
		defer func() { unwound++ }()
		p.Recv(AnySource, AnyTag)
	})
	m.SpawnAt("computer", 1, func(p *Proc) {
		defer func() { unwound++ }()
		p.Compute(sim.Second)
	})
	k.RunUntil(sim.Millisecond)
	k.Shutdown()
	checkErrs(t, m)
	if unwound != 2 {
		t.Errorf("%d of 2 tasks unwound", unwound)
	}
	if m.Running() != 0 {
		t.Errorf("Running = %d after Shutdown", m.Running())
	}
}

func TestSpawnCostIsCharged(t *testing.T) {
	k, m := simMachine(t, 2)
	m.SpawnAt("m", 0, func(p *Proc) {
		p.Spawn("w", 1, func(w *Proc) {})
	})
	end := k.Run()
	checkErrs(t, m)
	if end < m.cm.PVMSpawnCost {
		t.Errorf("end = %v, want >= spawn cost %v", end, m.cm.PVMSpawnCost)
	}
}

func TestGroupsAndMcast(t *testing.T) {
	k, m := simMachine(t, 4)
	var mu atomic.Int64
	const members = 3
	for i := 0; i < members; i++ {
		i := i
		m.SpawnAt("w", i, func(p *Proc) {
			p.JoinGroupAs("row", i)
			if i == 0 {
				// Instance 0 multicasts to the whole row, once Gettid has
				// found every member joined.
				var dsts []TID
				for j := 0; j < members; j++ {
					dsts = append(dsts, p.Gettid("row", j))
				}
				p.InitSend()
				p.PkInt(99)
				p.Mcast(dsts, 5)
				return
			}
			b := p.Recv(AnySource, 5)
			if v := p.UpkInt(b); v == 99 {
				mu.Add(1)
			}
		})
	}
	k.Run()
	checkErrs(t, m)
	if mu.Load() != members-1 {
		t.Errorf("mcast reached %d members, want %d", mu.Load(), members-1)
	}
}

func TestMatrixPackUnpack(t *testing.T) {
	k, m := simMachine(t, 2)
	a := matmul.Random(8, 1)
	recv := m.SpawnAt("r", 1, func(p *Proc) {
		b := p.Recv(AnySource, 3)
		got := value.NewMat(8, 8)
		p.UpkMat(b, got)
		if matmul.MaxAbsDiff(a, got) != 0 {
			t.Error("matrix corrupted in transit")
		}
	})
	m.SpawnAt("s", 0, func(p *Proc) {
		p.InitSend()
		p.PkMat(a)
		p.Send(recv, 3)
	})
	k.Run()
	checkErrs(t, m)
}

func TestUnpackMatrixWrongShapeAborts(t *testing.T) {
	k, m := simMachine(t, 1)
	sent := value.NewMat(4, 3)
	for i := range sent.Data {
		sent.Data[i] = float64(i + 1)
	}
	// Same element count as the matrix sent, transposed shape.
	dst := value.NewMat(3, 4)
	for i := range dst.Data {
		dst.Data[i] = -1
	}
	reached := false
	recv := m.SpawnAt("r", 0, func(p *Proc) {
		p.UpkMat(p.Recv(AnySource, AnyTag), dst)
		reached = true
	})
	m.SpawnAt("s", 0, func(p *Proc) {
		p.InitSend()
		p.PkMat(sent)
		p.Send(recv, 0)
	})
	k.Run()
	errs := m.Errors()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "unpack matrix 4x3 into 3x4") {
		t.Errorf("errors = %v", errs)
	}
	if reached {
		t.Error("the task ran on after a wrong-shape unpack")
	}
	for i, v := range dst.Data {
		if v != -1 {
			t.Fatalf("destination written at %d: %v", i, v)
		}
	}
}

func TestUnpackBeyondEndPanicsIsRecorded(t *testing.T) {
	k, m := simMachine(t, 1)
	recv := m.SpawnAt("r", 0, func(p *Proc) {
		b := p.Recv(AnySource, AnyTag)
		p.UpkInt(b)
		p.UpkInt(b) // only one int was packed
	})
	m.SpawnAt("s", 0, func(p *Proc) {
		p.InitSend()
		p.PkInt(1)
		p.Send(recv, 0)
	})
	k.Run()
	errs := m.Errors()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "unpack") {
		t.Errorf("errors = %v", errs)
	}
}

func TestFragmentationAndWindowPacing(t *testing.T) {
	// A large message must take longer per byte than a small one and keep
	// the bus busy for at least its wire time.
	k, m := simMachine(t, 2)
	reg := obs.NewMetrics()
	m.cluster.Observe(nil, reg)
	cm := m.cm
	payload := make([]byte, 10*cm.PVMFragSize)
	recv := m.SpawnAt("r", 1, func(p *Proc) {
		b := p.Recv(AnySource, 1)
		if got := p.UpkBytes(b); len(got) != len(payload) {
			t.Errorf("len = %d", len(got))
		}
	})
	m.SpawnAt("s", 0, func(p *Proc) {
		p.InitSend()
		p.PkBytes(payload)
		p.Send(recv, 1)
	})
	end := k.Run()
	checkErrs(t, m)
	if wire := cm.WireTime(len(payload)); end < wire {
		t.Errorf("end %v < pure wire time %v", end, wire)
	}
	// All 10 fragments plus acks crossed the bus.
	if msgs := reg.CounterValue("bus.msgs"); msgs < 20 {
		t.Errorf("bus messages = %d, want >= 20 (frags + acks)", msgs)
	}
}

func TestSendToDeadTaskIsDropped(t *testing.T) {
	k, m := simMachine(t, 1)
	m.SpawnAt("s", 0, func(p *Proc) {
		p.InitSend()
		p.PkInt(1)
		p.Send(9999, 0)
	})
	k.Run()
	checkErrs(t, m)
}

func TestLocalDeliverySkipsBus(t *testing.T) {
	k, m := simMachine(t, 1)
	reg := obs.NewMetrics()
	m.cluster.Observe(nil, reg)
	recv := m.SpawnAt("r", 0, func(p *Proc) { p.Recv(AnySource, AnyTag) })
	m.SpawnAt("s", 0, func(p *Proc) {
		p.InitSend()
		p.PkInt(1)
		p.Send(recv, 0)
	})
	k.Run()
	checkErrs(t, m)
	if msgs := reg.CounterValue("bus.msgs"); msgs != 0 {
		t.Errorf("local send used the bus: %d messages", msgs)
	}
}

func TestRealMachineManagerWorker(t *testing.T) {
	// The Fig. 2 manager/worker skeleton on the real (goroutine) machine.
	m := NewRealMachine(4)
	const nTasks = 30
	results := make([]int64, 0, nTasks)
	m.SpawnAt("manager", 0, func(p *Proc) {
		const nWorkers = 3
		workers := make([]TID, nWorkers)
		for i := 0; i < nWorkers; i++ {
			workers[i] = p.Spawn("worker", 1+i, func(w *Proc) {
				for {
					b := w.Recv(w.Parent(), AnyTag)
					task := w.UpkInt(b)
					w.InitSend()
					w.PkInt(task * task)
					w.Send(w.Parent(), 2)
				}
			})
		}
		next := int64(0)
		for _, w := range workers {
			p.InitSend()
			p.PkInt(next)
			p.Send(w, 1)
			next++
		}
		outstanding := len(workers)
		for outstanding > 0 {
			b := p.Recv(AnySource, 2)
			results = append(results, p.UpkInt(b))
			if next < nTasks {
				p.InitSend()
				p.PkInt(next)
				p.Send(b.Sender(), 1)
				next++
			} else {
				p.Kill(b.Sender())
				outstanding--
			}
		}
	})
	m.Wait()
	checkErrs(t, m)
	if len(results) != nTasks {
		t.Fatalf("got %d results, want %d", len(results), nTasks)
	}
	var sum int64
	for _, r := range results {
		sum += r
	}
	var want int64
	for i := int64(0); i < nTasks; i++ {
		want += i * i
	}
	if sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

func TestSpawnOnBadHostPanics(t *testing.T) {
	_, m := simMachine(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("bad host should panic")
		}
	}()
	m.SpawnAt("x", 5, func(*Proc) {})
}
