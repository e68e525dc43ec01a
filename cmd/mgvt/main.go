// mgvt benchmarks global-virtual-time maintenance and the scale-out kernel
// work that feeds it, recording the trajectory into BENCH_gvt.json:
//
//   - scale: a virtual-time workload (per-daemon walkers alternating
//     sched_dlt epochs with ring hops) swept over daemon counts under both
//     GVT implementations — the centralized coordinator and the distributed
//     ring reduction — recording rounds, commits, control-message counts,
//     mean round latency, and hop throughput. The headline numbers: the
//     coordinator funnels O(N) control messages per round through daemon 0,
//     the ring costs ≤2 per daemon per round with no convergence point.
//   - khost: the same workload at 1k simulated hosts (the E1-style scale
//     point), ring vs. coordinator.
//   - queue: the event-kernel microbenchmark at 1k-host event rates —
//     heap vs. calendar vs. adaptive pending-event sets, wall-clock
//     events/second.
//   - tcp: a ≥16-daemon run over real TCP sockets with distributed GVT,
//     wall-clock round latency and hop throughput.
//
// mgvt exits nonzero if the ring protocol exceeds its 2-control-messages-
// per-daemon-per-round budget (excluding quiescence notifications), or if
// any run fails.
//
//	mgvt -out BENCH_gvt.json
//	mgvt -short -skip-tcp
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"messengers"
	"messengers/internal/core"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// ringWalk alternates virtual-time epochs with hops around the logical
// ring, so every round of GVT has both suspended wake-ups and transient
// Messengers to account for.
const ringWalk = `
	for (k = 0; k < epochs; k++) {
		sched_dlt(0.5);
		hop(ll = "ring", ldir = +);
	}
`

type scaleResult struct {
	Engine  string `json:"engine"` // "sim" or "tcp"
	Impl    string `json:"impl"`   // "coordinator" or "ring"
	Daemons int    `json:"daemons"`
	Walkers int    `json:"walkers"`
	Epochs  int    `json:"epochs"`

	Rounds  int64 `json:"rounds"`
	Commits int   `json:"commits"`
	// CtlMsgs is the total GVT control traffic (queries, reports,
	// advances, tokens, notifications) across all daemons.
	CtlMsgs int64 `json:"ctl_msgs"`
	// CtlDaemon0PerRound is daemon 0's share per round — the coordinator's
	// O(N) bottleneck, the ring initiator's O(1).
	CtlDaemon0PerRound float64 `json:"ctl_daemon0_per_round"`
	// CtlMaxPerDaemonRound is the worst daemon's per-round control sends
	// with quiescence notifications subtracted: the protocol cost proper.
	// The ring's budget is 2 (one token forward per pass).
	CtlMaxPerDaemonRound float64 `json:"ctl_max_per_daemon_round"`
	// RoundMs is the mean GVT round latency (simulated ms on sim, wall ms
	// on tcp).
	RoundMs float64 `json:"round_ms"`
	// Hops and HopsPerS are remote hops and their rate over the run
	// (simulated time on sim, wall time on tcp).
	Hops     int64   `json:"hops"`
	HopsPerS float64 `json:"hops_per_s"`
	// ElapsedS is the makespan (simulated s on sim, wall s on tcp).
	ElapsedS float64 `json:"elapsed_s"`
	WallS    float64 `json:"wall_s"`
}

type queueResult struct {
	Impl       string  `json:"impl"`
	Hosts      int     `json:"hosts"`
	Events     int64   `json:"events"`
	WallS      float64 `json:"wall_s"`
	EventsPerS float64 `json:"events_per_s"`
}

type benchFile struct {
	GeneratedAt string        `json:"generated_at"`
	Scale       []scaleResult `json:"scale"`
	KHost       []scaleResult `json:"khost"`
	Queue       []queueResult `json:"queue"`
	TCP         []scaleResult `json:"tcp"`
}

func main() {
	out := flag.String("out", "BENCH_gvt.json", "output JSON path")
	short := flag.Bool("short", false, "reduced sweep for CI sanity")
	skipTCP := flag.Bool("skip-tcp", false, "skip the TCP leg")
	tcpDaemons := flag.Int("tcp-daemons", 16, "daemon count for the TCP leg")
	flag.Parse()

	file := benchFile{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	violations := 0

	counts := []int{8, 16, 32, 64}
	epochs := 20
	if *short {
		counts = []int{4, 8}
		epochs = 8
	}
	for _, n := range counts {
		for _, impl := range []string{"coordinator", "ring"} {
			r, err := simRun(n, epochs, impl == "ring")
			if err != nil {
				fatal(err)
			}
			violations += check(r)
			file.Scale = append(file.Scale, *r)
			fmt.Printf("sim  %-11s n=%-4d rounds=%-5d ctl/d0/round=%-8.1f ctl/max/round=%-6.2f round=%.3fms hops/s=%.0f\n",
				impl, n, r.Rounds, r.CtlDaemon0PerRound, r.CtlMaxPerDaemonRound, r.RoundMs, r.HopsPerS)
		}
	}

	// The 1k-host scale point stays at full size even under -short (fewer
	// epochs only): CI's bench sanity doubles as the 1k-host smoke test.
	khostN, khostEpochs := 1000, 3
	if *short {
		khostEpochs = 2
	}
	for _, impl := range []string{"coordinator", "ring"} {
		r, err := simRun(khostN, khostEpochs, impl == "ring")
		if err != nil {
			fatal(err)
		}
		violations += check(r)
		file.KHost = append(file.KHost, *r)
		fmt.Printf("sim  %-11s n=%-4d rounds=%-5d ctl/d0/round=%-8.1f ctl/max/round=%-6.2f round=%.3fms hops/s=%.0f\n",
			impl, khostN, r.Rounds, r.CtlDaemon0PerRound, r.CtlMaxPerDaemonRound, r.RoundMs, r.HopsPerS)
	}

	events := int64(2_000_000)
	if *short {
		events = 200_000
	}
	for _, impl := range []string{"heap", "calendar", "adaptive"} {
		q := queueRun(impl, 1000, events)
		file.Queue = append(file.Queue, q)
		fmt.Printf("queue %-9s hosts=%d events=%d wall=%.3fs rate=%.0f/s\n",
			impl, q.Hosts, q.Events, q.WallS, q.EventsPerS)
	}

	if !*skipTCP {
		n := *tcpDaemons
		tcpEpochs := 10
		if *short {
			n, tcpEpochs = 8, 5
		}
		for _, impl := range []string{"coordinator", "ring"} {
			r, err := tcpRun(n, tcpEpochs, impl == "ring")
			if err != nil {
				fatal(err)
			}
			violations += check(r)
			file.TCP = append(file.TCP, *r)
			fmt.Printf("tcp  %-11s n=%-4d rounds=%-5d ctl/d0/round=%-8.1f ctl/max/round=%-6.2f round=%.3fms hops/s=%.0f\n",
				impl, n, r.Rounds, r.CtlDaemon0PerRound, r.CtlMaxPerDaemonRound, r.RoundMs, r.HopsPerS)
		}
	}

	buf, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "mgvt: %d control-message budget violations\n", violations)
		os.Exit(1)
	}
}

// check enforces the ring's per-round control budget and returns the
// number of violations found.
func check(r *scaleResult) int {
	if r.Impl != "ring" {
		return 0
	}
	if r.Rounds > 0 && r.CtlMaxPerDaemonRound > 2.0 {
		fmt.Fprintf(os.Stderr, "mgvt: %s n=%d: %.2f control messages per daemon per round exceeds the ring budget of 2\n",
			r.Engine, r.Daemons, r.CtlMaxPerDaemonRound)
		return 1
	}
	return 0
}

// ringSpec lays one logical node per daemon and closes them into a
// directed ring of "ring" links.
func ringSpec(n int) messengers.NetSpec {
	spec := messengers.NetSpec{}
	name := func(i int) string { return fmt.Sprintf("r%d", i) }
	for i := 0; i < n; i++ {
		spec.Nodes = append(spec.Nodes, messengers.NetNode{Name: name(i), Daemon: i})
	}
	for i := 0; i < n; i++ {
		spec.Links = append(spec.Links, messengers.NetLink{
			A: name(i), B: name((i + 1) % n), Name: "ring", Dir: 1,
		})
	}
	return spec
}

// collect reads per-daemon GVT statistics. On the (finished, single-
// threaded) sim engine it reads directly; on live engines it runs on each
// daemon's own executor to avoid racing it.
func collect(sys *core.System, n int, r *scaleResult, elapsedS float64, direct bool) {
	type row struct {
		ctl, rounds, suspends, hops int64
		roundTime                   sim.Time
	}
	read := func(d *core.Daemon) row {
		return row{
			ctl:       d.Stats.GVTCtlMsgs,
			rounds:    d.Stats.GVTRounds,
			suspends:  d.Stats.Suspends,
			hops:      d.Stats.RemoteHops,
			roundTime: d.Stats.GVTRoundTime,
		}
	}
	rows := make([]row, n)
	for i := 0; i < n; i++ {
		if direct {
			rows[i] = read(sys.Daemon(i))
			continue
		}
		i := i
		done := make(chan struct{})
		sys.Do(i, func(d *core.Daemon) {
			rows[i] = read(d)
			close(done)
		})
		<-done
	}
	r.Rounds = rows[0].rounds
	r.Commits = len(sys.CommitLog())
	for i, row := range rows {
		r.CtlMsgs += row.ctl
		r.Hops += row.hops
		if r.Rounds > 0 {
			adj := float64(row.ctl-row.suspends) / float64(r.Rounds)
			if adj > r.CtlMaxPerDaemonRound {
				r.CtlMaxPerDaemonRound = adj
			}
			if i == 0 {
				r.CtlDaemon0PerRound = float64(row.ctl) / float64(r.Rounds)
			}
		}
	}
	if r.Rounds > 0 {
		r.RoundMs = float64(rows[0].roundTime) / float64(r.Rounds) / 1e6
	}
	r.ElapsedS = elapsedS
	if elapsedS > 0 {
		r.HopsPerS = float64(r.Hops) / elapsedS
	}
}

func simRun(n, epochs int, ring bool) (*scaleResult, error) {
	impl := "coordinator"
	if ring {
		impl = "ring"
	}
	r := &scaleResult{Engine: "sim", Impl: impl, Daemons: n, Walkers: n, Epochs: epochs}
	start := time.Now()
	sys, err := messengers.NewSimSystem(messengers.Config{
		Daemons:        n,
		DistributedGVT: ring,
	})
	if err != nil {
		return nil, err
	}
	if err := sys.BuildNetwork(ringSpec(n)); err != nil {
		return nil, err
	}
	if err := sys.CompileAndRegister("walk", ringWalk); err != nil {
		return nil, err
	}
	vars := map[string]value.Value{"epochs": value.Int(int64(epochs))}
	for i := 0; i < n; i++ {
		if err := sys.InjectAt(i, "walk", fmt.Sprintf("r%d", i), vars); err != nil {
			return nil, err
		}
	}
	elapsed := sys.RunSim()
	if errs := sys.Errors(); len(errs) > 0 {
		return nil, fmt.Errorf("sim n=%d %s: %v", n, impl, errs[0])
	}
	collect(sys.System, n, r, float64(elapsed)/1e9, true)
	r.WallS = time.Since(start).Seconds()
	return r, nil
}

func tcpRun(n, epochs int, ring bool) (*scaleResult, error) {
	impl := "coordinator"
	if ring {
		impl = "ring"
	}
	r := &scaleResult{Engine: "tcp", Impl: impl, Daemons: n, Walkers: n, Epochs: epochs}
	sys, err := messengers.NewTCPSystem(messengers.Config{
		Daemons:        n,
		DistributedGVT: ring,
		GVTInterval:    messengers.SimTime(2 * time.Millisecond),
	}, nil)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := sys.BuildNetwork(ringSpec(n)); err != nil {
		return nil, err
	}
	if err := sys.CompileAndRegister("walk", ringWalk); err != nil {
		return nil, err
	}
	vars := map[string]value.Value{"epochs": value.Int(int64(epochs))}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := sys.InjectAt(i, "walk", fmt.Sprintf("r%d", i), vars); err != nil {
			return nil, err
		}
	}
	sys.Wait()
	wall := time.Since(start).Seconds()
	if errs := sys.Errors(); len(errs) > 0 {
		return nil, fmt.Errorf("tcp n=%d %s: %v", n, impl, errs[0])
	}
	collect(sys.System, n, r, wall, false)
	r.WallS = wall
	return r, nil
}

// queueRun measures raw event-kernel throughput: `hosts` self-rescheduling
// timers with staggered periods, `events` firings total, against the
// chosen pending-event set implementation.
func queueRun(impl string, hosts int, events int64) queueResult {
	k := sim.NewWithQueue(impl)
	var fired int64
	start := time.Now()
	for h := 0; h < hosts; h++ {
		h := h
		period := sim.Time(1000 + 17*h)
		var tick func()
		tick = func() {
			fired++
			if fired < events {
				k.After(period, tick)
			}
		}
		k.After(period, tick)
	}
	k.Run()
	wall := time.Since(start).Seconds()
	q := queueResult{Impl: impl, Hosts: hosts, Events: fired, WallS: wall}
	if wall > 0 {
		q.EventsPerS = float64(fired) / wall
	}
	return q
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mgvt:", err)
	os.Exit(1)
}
