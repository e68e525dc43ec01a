package messengers

import (
	"sync"
	"testing"
	"time"

	"messengers/internal/wire"
)

// statCounters pairs each registry counter that reads the daemons' Stats
// with the field it reads.
var statCounters = map[string]func(Stats) int64{
	"msgr.arrived":     func(s Stats) int64 { return s.Arrived },
	"msgr.creates":     func(s Stats) int64 { return s.Creates },
	"msgr.deletes":     func(s Stats) int64 { return s.Deletes },
	"msgr.finished":    func(s Stats) int64 { return s.Finished },
	"msgr.died":        func(s Stats) int64 { return s.Died },
	"msgr.errors":      func(s Stats) int64 { return s.Errors },
	"msgr.evicted":     func(s Stats) int64 { return s.Evicted },
	"msgr.hops.local":  func(s Stats) int64 { return s.LocalHops },
	"msgr.hops.remote": func(s Stats) int64 { return s.RemoteHops },
	"vm.segments":      func(s Stats) int64 { return s.Segments },
	"vm.steps":         func(s Stats) int64 { return s.Steps },
	"gvt.rounds":       func(s Stats) int64 { return s.GVTRounds },
	"gvt.suspends":     func(s Stats) int64 { return s.Suspends },
	"gvt.ctl.msgs":     func(s Stats) int64 { return s.GVTCtlMsgs },
}

// gvtInterval keeps the real engines' GVT rounds, which pace the walkers,
// short.
const gvtInterval = SimTime(time.Millisecond)

// startMix lays a directed ring r0 -> r1 -> r2 over three daemons and
// releases Messengers that walk it under virtual time, create and delete
// links, hop locally and die.
func startMix(t *testing.T, sys *System, laps int) {
	t.Helper()
	spec := NetSpec{
		Nodes: []NetNode{{Name: "r0", Daemon: 0}, {Name: "r1", Daemon: 1}, {Name: "r2", Daemon: 2}, {Name: "a", Daemon: 0}, {Name: "b", Daemon: 1}},
		Links: []NetLink{
			{A: "r0", B: "r1", Name: "ring", Dir: 1}, {A: "r1", B: "r2", Name: "ring", Dir: 1}, {A: "r2", B: "r0", Name: "ring", Dir: 1},
			{A: "a", B: "b", Name: "go"},
		},
	}
	if err := sys.BuildNetwork(spec); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"walker": `for (k = 0; k < laps; k++) {
				sched_dlt(0.5);
				hop(ll = "ring", ldir = +);
				node.visits = node.visits + 1;
			}`,
		"creator":    `create(ALL); hop(ll = $last); hop(ll = $last);`,
		"demolisher": `delete(ll = "go");`,
		"jumper":     `hop(ln = "r0", ll = virtual);`,
		"lost":       `hop(ll = "nowhere");`,
	} {
		if err := sys.CompileAndRegister(name, src); err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range []struct {
		d            int
		script, node string
	}{
		{0, "walker", "r0"}, {1, "walker", "r1"}, {2, "walker", "r2"},
		{0, "creator", "init"}, {0, "demolisher", "a"}, {0, "jumper", "init"}, {2, "lost", "init"},
	} {
		if err := sys.InjectAt(in.d, in.script, in.node, map[string]Value{"laps": IntValue(int64(laps))}); err != nil {
			t.Fatal(err)
		}
	}
}

// quiesce drives sys to quiescence on any engine and fails on a runtime error.
func quiesce(t *testing.T, sys *System) {
	t.Helper()
	if sys.Kernel() != nil {
		sys.RunSim()
	} else {
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
	}
	for _, err := range sys.Errors() {
		t.Errorf("runtime error: %v", err)
	}
}

// TestRegistryCountersAreStats: on every engine the registry's msgr.*,
// vm.segments/steps and gvt.* counters read exactly the daemons' Stats.
func TestRegistryCountersAreStats(t *testing.T) {
	for _, engine := range []string{"sim", "chan", "tcp"} {
		t.Run(engine, func(t *testing.T) {
			reg := NewMetrics()
			cfg := Config{Daemons: 3, Metrics: reg, GVTInterval: gvtInterval}
			var sys *System
			var err error
			switch engine {
			case "sim":
				sys, err = NewSimSystem(cfg)
			case "chan":
				sys, err = NewRealSystem(cfg)
			case "tcp":
				sys, err = NewTCPSystem(cfg, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			startMix(t, sys, 4)
			quiesce(t, sys)
			st := sys.TotalStats()
			for name, field := range statCounters {
				if got, want := reg.CounterValue(name), field(st); got != want {
					t.Errorf("%s = %d, TotalStats %d", name, got, want)
				}
			}
			for _, name := range []string{"msgr.arrived", "msgr.creates", "msgr.deletes", "msgr.died",
				"msgr.hops.local", "msgr.hops.remote", "gvt.rounds", "gvt.suspends", "gvt.ctl.msgs"} {
				if reg.CounterValue(name) == 0 {
					t.Errorf("%s = 0: the mix did not reach it", name)
				}
			}
		})
	}
}

// TestSharedRegistrySumsSystems: two simulated systems on one registry
// read as the sum of their counts, and the process-wide wire gauges are
// read once.
func TestSharedRegistrySumsSystems(t *testing.T) {
	reg := NewMetrics()
	want := map[string]int64{}
	for laps := 2; laps <= 3; laps++ {
		sys, err := NewSimSystem(Config{Daemons: 3, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		startMix(t, sys, laps)
		quiesce(t, sys)
		for name, field := range statCounters {
			want[name] += field(sys.TotalStats())
		}
	}
	for name, n := range want {
		if got := reg.CounterValue(name); got != n {
			t.Errorf("%s = %d, the two systems counted %d", name, got, n)
		}
	}
	wire.PutBuf(wire.GetBuf()) // the pool count is not zero
	for _, s := range reg.Snapshot() {
		if s.Name == "wire.pool.gets" && s.Value != wire.ReadStats().PoolGets {
			t.Errorf("wire.pool.gets = %d, the process's pool counted %d", s.Value, wire.ReadStats().PoolGets)
		}
	}
}

// TestRegistryReadsLiveCounts reads the registry in a loop while goroutine
// daemons count into it. The daemons write their Stats with atomic adds
// and the registry loads them atomically: the race detector is the judge
// (CI runs this under -race -cpu 2,4), and a counter never reads lower
// than it did.
func TestRegistryReadsLiveCounts(t *testing.T) {
	reg := NewMetrics()
	sys, err := NewRealSystem(Config{Daemons: 3, Metrics: reg, GVTInterval: gvtInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	startMix(t, sys, 200)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Snapshot()
			hops := reg.CounterValue("msgr.hops.remote")
			if hops < last {
				t.Errorf("msgr.hops.remote read %d after %d", hops, last)
			}
			last = hops
		}
	}()
	quiesce(t, sys)
	close(stop)
	wg.Wait()
	if got, want := reg.CounterValue("msgr.hops.remote"), sys.TotalStats().RemoteHops; got != want || got < 600 {
		t.Errorf("msgr.hops.remote = %d, TotalStats %d, want at least 600", got, want)
	}
}
