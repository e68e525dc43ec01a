package messengers

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"messengers/internal/apps"
	"messengers/internal/core"
	"messengers/internal/lan"
	"messengers/internal/wire"
)

// These tests are the differential acceptance for the distributed
// ring-reduction GVT at application scale: the legacy coordinator is the
// oracle, and on the deterministic sim engine the ring must commit the
// identical sequence of GVT values while producing the identical results.

// TestGVTDifferentialE1 runs the E1 Mandelbrot configuration under both
// GVT implementations and compares images and committed GVT sequences.
func TestGVTDifferentialE1(t *testing.T) {
	cm := lan.DefaultCostModel()
	p := apps.PaperMandelParams(128, 8, 4)
	coord, err := apps.MandelMessengers(cm, p)
	if err != nil {
		t.Fatal(err)
	}
	p.DistributedGVT = true
	ring, err := apps.MandelMessengers(cm, p)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Checksum != coord.Checksum {
		t.Errorf("ring image %x differs from coordinator image %x", ring.Checksum, coord.Checksum)
	}
	assertSameCommits(t, coord.GVTCommits, ring.GVTCommits)
}

// TestGVTDifferentialMatmul uses the matmul workload because its sched_abs
// phase barriers make virtual time do real work: every rotation step is a
// GVT commit, so the sequences compared here are long and meaningful.
func TestGVTDifferentialMatmul(t *testing.T) {
	cm := lan.DefaultCostModel()
	p := apps.MatmulParams{M: 3, S: 5, Host: lan.SPARC110, Seed: 7}
	coord, err := apps.MatmulMessengers(cm, p)
	if err != nil {
		t.Fatal(err)
	}
	p.DistributedGVT = true
	ring, err := apps.MatmulMessengers(cm, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(coord.GVTCommits) == 0 {
		t.Fatal("matmul committed no GVT values; differential is vacuous")
	}
	assertSameCommits(t, coord.GVTCommits, ring.GVTCommits)
	if got := ring.Obs.CounterValue("gvt.commits"); got == 0 {
		t.Error("ring run recorded no gvt.commits metric")
	}
}

// TestGVTDifferentialChaos runs the chaos acceptance scenario under the
// ring protocol. Fault injection draws from the message stream, which
// differs between protocols, so the oracle here is the sequential image
// plus seed-determinism of the ring itself, not commit-sequence equality.
func TestGVTDifferentialChaos(t *testing.T) {
	cm := lan.DefaultCostModel()
	p := apps.PaperMandelParams(128, 8, 4)
	p.DistributedGVT = true
	clean, err := apps.MandelMessengers(cm, p)
	if err != nil {
		t.Fatalf("fault-free probe run: %v", err)
	}

	run := func() *apps.MandelResult {
		pc := p
		pc.Faults = chaosPlan(clean.Elapsed, 2)
		res, err := apps.MandelMessengers(cm, pc)
		if err != nil {
			t.Fatalf("chaos run: %v", err)
		}
		return res
	}
	got := run()
	if want := apps.MandelSequential(cm, p); got.Checksum != want.Checksum {
		t.Errorf("ring chaos image = %x, sequential = %x", got.Checksum, want.Checksum)
	}
	if got.Obs.CounterValue("daemon.deaths") != 1 {
		t.Error("plan crashed no daemon; chaos differential is vacuous")
	}
	again := run()
	if again.Elapsed != got.Elapsed {
		t.Errorf("ring chaos runs diverge: %v vs %v", got.Elapsed, again.Elapsed)
	}
	assertSameCommits(t, got.GVTCommits, again.GVTCommits)
}

func assertSameCommits(t *testing.T, want, got []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("commit counts differ: got %d %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("commit %d differs: got %v, want %v", i, got, want)
		}
	}
}

// ringWalk is internal/core's TestRingControlMessageComplexity workload:
// virtual-time epochs alternating with hops around a logical ring.
const ringWalk = `
	for (k = 0; k < epochs; k++) {
		sched_dlt(0.5);
		hop(ll = "ring", ldir = +);
	}
`

// TestGVTRingWalkTCP runs ringWalk, one walker per daemon, over real
// sockets under both GVT implementations: neither may record an error, and
// the ring must stay inside its budget of 2 control messages per daemon per
// round (net of quiescence notifications, one per suspend) with real
// concurrency. The logged wall-clock columns are what docs/GVT.md quotes;
// wire is every encoded frame's bytes, the walkers' hops included, per
// round.
func TestGVTRingWalkTCP(t *testing.T) {
	const n, epochs = 8, 10
	for _, impl := range []string{"coordinator", "ring"} {
		ring := impl == "ring"
		t.Run(impl, func(t *testing.T) {
			sys, err := NewTCPSystem(Config{
				Daemons:        n,
				DistributedGVT: ring,
				GVTInterval:    SimTime(2 * time.Millisecond),
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if err := sys.BuildNetwork(wireRingSpec(n)); err != nil {
				t.Fatal(err)
			}
			if err := sys.CompileAndRegister("walk", ringWalk); err != nil {
				t.Fatal(err)
			}
			start, encoded := time.Now(), wire.ReadStats().BytesEncoded
			for i := 0; i < n; i++ {
				err := sys.InjectAt(i, "walk", fmt.Sprintf("r%d", i), map[string]Value{"epochs": IntValue(epochs)})
				if err != nil {
					t.Fatal(err)
				}
			}
			sys.Wait()
			wall := time.Since(start)
			if errs := sys.Errors(); len(errs) > 0 {
				t.Fatal(errs)
			}

			// Each daemon's Stats belong to its executor; read them there.
			stats := make([]core.Stats, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				i := i
				wg.Add(1)
				sys.Do(i, func(d *core.Daemon) {
					stats[i] = d.Stats
					wg.Done()
				})
			}
			wg.Wait()
			rounds := float64(stats[0].GVTRounds)
			if rounds == 0 {
				t.Fatal("no GVT rounds ran")
			}
			var hops int64
			var maxPerRound float64
			for _, st := range stats {
				hops += st.RemoteHops
				if adj := float64(st.GVTCtlMsgs-st.Suspends) / rounds; adj > maxPerRound {
					maxPerRound = adj
				}
			}
			t.Logf("n=%d rounds=%.0f ctl/max/round=%.2f round=%.3fms hops/s=%.0f wire=%.0fB/round", n, rounds, maxPerRound,
				float64(stats[0].GVTRoundTime)/rounds/float64(time.Millisecond), float64(hops)/wall.Seconds(),
				float64(wire.ReadStats().BytesEncoded-encoded)/rounds)
			if ring && maxPerRound > 2.0 {
				t.Errorf("%.2f control messages per daemon per round, budget 2", maxPerRound)
			}
		})
	}
}
