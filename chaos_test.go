package messengers

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"messengers/internal/apps"
	"messengers/internal/faults"
	"messengers/internal/lan"
	"messengers/internal/sim"
)

// chaosPlan is the chaos acceptance scenario scaled to a run whose
// fault-free makespan is clean: 5% uniform message loss plus one daemon
// crash at ~30% of the makespan that restarts a tenth of a makespan later.
func chaosPlan(clean sim.Time, daemon int) *faults.Plan {
	return &faults.Plan{
		Seed: 1,
		Drop: 0.05,
		Crashes: []faults.Crash{{
			Daemon:       daemon,
			At:           int64(clean) * 3 / 10,
			RestartAfter: int64(clean) / 10,
		}},
	}
}

// TestChaosMandelCompletes is the acceptance run: the E1 Mandelbrot
// configuration under 5% message loss plus one daemon crash/restart must
// still produce the exact sequential image — every block accounted for —
// with the recovery machinery (retransmit, respawn, adoption) doing real
// work along the way.
func TestChaosMandelCompletes(t *testing.T) {
	cm := lan.DefaultCostModel()
	p := apps.PaperMandelParams(128, 8, 4)
	clean, err := apps.MandelMessengers(cm, p)
	if err != nil {
		t.Fatalf("fault-free probe run: %v", err)
	}

	p.Faults = chaosPlan(clean.Elapsed, 2)
	got, err := apps.MandelMessengers(cm, p)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if want := apps.MandelSequential(cm, p); got.Checksum != want.Checksum {
		t.Errorf("chaos image checksum = %x, sequential = %x", got.Checksum, want.Checksum)
	}

	// Guard against a vacuous pass: the plan must have actually dropped
	// traffic and killed the daemon, and recovery must have responded.
	for _, c := range []struct {
		name string
		want int64
	}{
		{"daemon.deaths", 1},
		{"daemon.restarts", 1},
	} {
		if got := got.Obs.CounterValue(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	for _, name := range []string{"faults.injected.drop", "msgr.retx"} {
		if got.Obs.CounterValue(name) == 0 {
			t.Errorf("%s = 0; the chaos run injected/recovered nothing", name)
		}
	}
}

// TestChaosFaultFreeUnperturbed guards the other half of the acceptance
// bar: with no fault plan attached, a run of the same configuration is
// untouched by the recovery code paths — identical makespan and image to
// a second fault-free run, and zero recovery traffic.
func TestChaosFaultFreeUnperturbed(t *testing.T) {
	cm := lan.DefaultCostModel()
	p := apps.PaperMandelParams(128, 8, 4)
	a, err := apps.MandelMessengers(cm, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := apps.MandelMessengers(cm, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Checksum != b.Checksum {
		t.Errorf("fault-free runs diverge: (%v, %x) vs (%v, %x)",
			a.Elapsed, a.Checksum, b.Elapsed, b.Checksum)
	}
	for _, name := range []string{"msgr.retx", "msgr.dedup", "msgr.respawns"} {
		if got := a.Obs.CounterValue(name); got != 0 {
			t.Errorf("%s = %d in a fault-free run", name, got)
		}
	}
}

// TestChaosTraceDeterminism pins the injected-fault determinism guarantee:
// the same seed and plan produce a byte-identical event trace across two
// chaos runs, and the trace matches testdata/chaos_trace.json (refresh
// with go test -run ChaosTraceDeterminism -update). The faults module
// draws all randomness from the plan's seed and partition checks consume
// none, so any divergence means injection or recovery has picked up a
// nondeterministic input.
func TestChaosTraceDeterminism(t *testing.T) {
	cm := lan.DefaultCostModel()
	base := apps.PaperMandelParams(64, 4, 2)
	clean, err := apps.MandelMessengers(cm, base)
	if err != nil {
		t.Fatalf("fault-free probe run: %v", err)
	}
	want := apps.MandelSequential(cm, base)

	export := func() []byte {
		p := base
		p.Trace = NewTracer()
		p.Faults = chaosPlan(clean.Elapsed, 1)
		res, err := apps.MandelMessengers(cm, p)
		if err != nil {
			t.Fatalf("chaos run: %v", err)
		}
		if res.Checksum != want.Checksum {
			t.Errorf("chaos image checksum = %x, sequential = %x", res.Checksum, want.Checksum)
		}
		if res.Obs.CounterValue("daemon.deaths") != 1 {
			t.Error("plan crashed no daemon; determinism test is vacuous")
		}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, p.Trace); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical chaos runs exported different traces (%d vs %d bytes)", len(a), len(b))
	}

	golden := filepath.Join("testdata", "chaos_trace.json")
	if *updateGolden {
		if err := os.WriteFile(golden, a, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, pinned) {
		t.Errorf("chaos trace differs from %s (run with -update after intentional changes)", golden)
	}
}

// TestScheduleStopsAtClose: a fault plan's timers belong to the system that
// armed them. One restart is due while Close runs and two after it has
// returned; none may bring a listener back on a closed engine (the engine
// refuses a revive once closed, Close stops the timers still pending), and
// under -race none may touch the engine's books behind Close's back.
func TestScheduleStopsAtClose(t *testing.T) {
	ms := int64(time.Millisecond)
	sys, err := NewTCPSystem(Config{Daemons: 4, Faults: &faults.Plan{
		Seed: 1,
		Crashes: []faults.Crash{
			{Daemon: 1, At: 0, RestartAfter: 5 * ms},
			{Daemon: 2, At: 0, RestartAfter: 10 * ms},
			{Daemon: 3, At: 0, RestartAfter: 25 * ms},
		},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	addrs := sys.Addrs()
	time.Sleep(5 * time.Millisecond)
	sys.Close()
	time.Sleep(40 * time.Millisecond)
	for d, addr := range addrs {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("daemon %d listens on %s after Close", d, addr)
		}
	}
}
