package core

import (
	"testing"
	"time"

	"messengers/internal/faults"
	"messengers/internal/lan"
	"messengers/internal/sim"
)

// TestDedupStateBounded drives many reliable transfers across one wire and
// checks that the duplicate-suppression state stays bounded: the AckFloor
// piggybacked on reliable sends lets receivers evict (msgrID, hopSeq) dedup
// entries below the sender's release floor, and RetainBudget caps how many
// acked snapshots the sender keeps ahead of GVT fossil collection.
func TestDedupStateBounded(t *testing.T) {
	const hops = 200
	const budget = 8
	k, sys := simSystem(t, 2, WithRecovery(RecoveryConfig{RetainBudget: budget}))
	register(t, sys, "pingpong", `
		create(ALL);
		for (k = 0; k < `+itoa(hops)+`; k++) { hop(ll = $last); }
	`)
	if err := sys.Inject(0, "pingpong", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)

	for d := 0; d < 2; d++ {
		rec := sys.Daemon(d).rec
		// After quiescence nothing may await retransmission; what remains
		// in pending is acked snapshots retained for crash respawn, and
		// the budget caps those instead of letting them grow with the run.
		for seq, e := range rec.pending {
			if !e.acked {
				t.Errorf("daemon %d: transfer %d unacked after quiescence", d, seq)
			}
		}
		if n := len(rec.pending); n > budget {
			t.Errorf("daemon %d: %d retained transfers, budget %d", d, n, budget)
		}
		if n := len(rec.retained); n > budget {
			t.Errorf("daemon %d: %d retained snapshots, budget %d", d, n, budget)
		}
		for from, sm := range rec.seen {
			// Each hop recorded a dedup entry; without floor-based eviction
			// the map would hold one entry per transfer ever received
			// (~hops). Bounded means a small multiple of the retain budget.
			if n := len(sm); n > 4*budget {
				t.Errorf("daemon %d: dedup map for sender %d holds %d entries over %d transfers (unbounded?)",
					d, from, n, hops)
			}
			if len(sm) > 0 && rec.evictedTo[from] == 0 {
				t.Errorf("daemon %d: dedup watermark for sender %d never advanced", d, from)
			}
		}
	}
}

// TestDedupUnboundedWithoutBudget documents the RetainBudget=0 tradeoff:
// snapshots (and thus receiver dedup entries) are retained until GVT fossil
// collection, so the run must still quiesce and stay exactly-once, even if
// more state is held mid-run.
func TestDedupUnboundedWithoutBudget(t *testing.T) {
	k, sys := simSystem(t, 2, WithRecovery(RecoveryConfig{}))
	register(t, sys, "once", `
		create(ALL);
		hop(ll = $last);
		node.count = node.count + 1;
		hop(ll = $last);
	`)
	if err := sys.Inject(0, "once", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	if got := sys.Daemon(1).Store().Init().Vars["count"]; !got.IsNil() && got.AsInt() != 1 {
		t.Errorf("count = %v, want 1", got)
	}
}

// TestRetainBudgetUnderDuplicates: the bounded dedup window must still
// suppress duplicates the network delivers, including stragglers arriving
// after the window slid past them (caught by the evictedTo watermark).
func TestRetainBudgetUnderDuplicates(t *testing.T) {
	plan := &faults.Plan{Seed: 11, Dup: 0.4}
	if err := plan.Validate(2); err != nil {
		t.Fatal(err)
	}
	k := sim.New()
	cluster := lan.NewCluster(k, lan.DefaultCostModel(), 2, lan.SPARC110)
	sys := NewSystem(NewSimEngine(cluster), FullMesh(2),
		WithRecovery(RecoveryConfig{RetainBudget: 4}))
	inj := faults.NewInjector(plan, nil, nil)
	cluster.SetFaultHook(inj.Decide)
	register(t, sys, "strider", `
		create(ALL);
		for (k = 0; k < 40; k++) {
			hop(ll = $last);
			node.count = node.count + 1;
		}
	`)
	if err := sys.Inject(0, "strider", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	// Exactly-once: the strider lands on daemon 0's init node on every odd
	// iteration — exactly 20 increments, duplicates notwithstanding.
	if got := sys.Daemon(0).Store().Init().Vars["count"].AsInt(); got != 20 {
		t.Errorf("init count = %d, want 20 (duplicate applied?)", got)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestFarAckFloorEvictsAtOnce: a reliable message whose AckFloor is far
// ahead of the receiver's watermark, as a restarted sender's or a forged
// one can be, costs eviction of the records held, not a walk from the
// watermark to the floor one sequence at a time (1<<60 of them left the
// executor spinning).
func TestFarAckFloorEvictsAtOnce(t *testing.T) {
	_, sys := simSystem(t, 2, WithRecovery(RecoveryConfig{}))
	d := sys.Daemon(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := uint64(1); seq <= 3; seq++ {
			d.HandleMsg(&Msg{Kind: MsgCreateAck, From: 0, HopSeq: seq, AckFloor: seq - 1})
		}
		d.HandleMsg(&Msg{Kind: MsgCreateAck, From: 0, HopSeq: 1<<60 + 1, AckFloor: 1 << 60})
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("HandleMsg still evicting after 1 s")
	}
	rec := d.rec
	if rec.evictedTo[0] != 1<<60 || len(rec.seen[0]) != 1 {
		t.Errorf("watermark %d with %d records held, want 1<<60 with only the last", rec.evictedTo[0], len(rec.seen[0]))
	}
	// A duplicate below the new watermark is still recognised.
	if !d.seenBefore(&Msg{Kind: MsgCreateAck, From: 0, HopSeq: 2}) {
		t.Error("a straggler below the watermark was taken as new")
	}
}
