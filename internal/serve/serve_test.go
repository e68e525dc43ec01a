package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"messengers"
	"messengers/internal/serve"
	"messengers/internal/sim"
)

const walker = `
	for (k = 0; k < hops; k++) {
		node.visits = node.visits + 1;
		hop(ll = "ring", ldir = +);
	}
`

const hog = `for (k = 0; k >= 0; k++) { x = x + 1; }`

func ringSpec(daemons int) messengers.NetSpec {
	spec := messengers.NetSpec{}
	for i := 0; i < daemons; i++ {
		spec.Nodes = append(spec.Nodes, messengers.NetNode{Name: fmt.Sprintf("r%d", i), Daemon: i})
		spec.Links = append(spec.Links, messengers.NetLink{
			A: fmt.Sprintf("r%d", i), B: fmt.Sprintf("r%d", (i+1)%daemons), Name: "ring", Dir: 1,
		})
	}
	return spec
}

// simService builds a simulated system with the shared ring plus an
// admission server on virtual time.
func simService(t *testing.T, daemons int, cfg messengers.Config, scfg serve.Config) (*messengers.System, *serve.Server) {
	t.Helper()
	cfg.Daemons = daemons
	cfg.DistributedGVT = cfg.DistributedGVT || os.Getenv("MSGR_DIST_GVT") == "1"
	sys, err := messengers.NewSimSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.BuildNetwork(ringSpec(daemons)); err != nil {
		t.Fatal(err)
	}
	k := sys.Kernel()
	scfg.Clock = k.Now
	scfg.After = func(d sim.Time, fn func()) { k.After(d, fn) }
	srv, err := serve.New(sys.System, scfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, srv
}

func tcpService(t *testing.T, daemons int, cfg messengers.Config, scfg serve.Config) (*messengers.System, *serve.Server) {
	t.Helper()
	cfg.Daemons = daemons
	cfg.DistributedGVT = cfg.DistributedGVT || os.Getenv("MSGR_DIST_GVT") == "1"
	sys, err := messengers.NewTCPSystem(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if err := sys.BuildNetwork(ringSpec(daemons)); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(sys.System, scfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, srv
}

func walkerSub(tenant string, hops, daemon int) serve.Submission {
	return serve.Submission{
		Tenant: tenant,
		Name:   "walker",
		Source: walker,
		Node:   fmt.Sprintf("r%d", daemon),
		Daemon: daemon,
		Vars:   map[string]messengers.Value{"hops": messengers.IntValue(int64(hops))},
	}
}

func rejectCode(t *testing.T, err error) serve.RejectCode {
	t.Helper()
	var rej *serve.Reject
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v (%T), want *serve.Reject", err, err)
	}
	return rej.Code
}

// TestRejectTaxonomy exercises every admission refusal and its transport
// status mapping.
func TestRejectTaxonomy(t *testing.T) {
	_, srv := simService(t, 2, messengers.Config{}, serve.Config{
		Tenants: []serve.TenantConfig{
			{ID: "a", Quota: serve.Quota{MaxProgram: 256, MaxLive: 1, MaxQueue: 1}},
		},
	})

	if _, _, err := srv.Submit(walkerSub("nobody", 1, 0)); rejectCode(t, err) != serve.RejectUnknownTenant {
		t.Errorf("unknown tenant: got %v", err)
	}
	if _, _, err := srv.Submit(serve.Submission{Tenant: "a", Name: "bad", Source: "hop(("}); rejectCode(t, err) != serve.RejectVerify {
		t.Errorf("unparsable program: got %v", err)
	}
	// Kind-faulting program: parses and compiles, but the kind-flow
	// verifier proves it faults — a distinct 400 from RejectVerify.
	_, _, illErr := srv.Submit(serve.Submission{Tenant: "a", Name: "ill", Source: `x = "a" - "b";`})
	if rejectCode(t, illErr) != serve.RejectIllTyped {
		t.Errorf("ill-typed program: got %v", illErr)
	}
	var illRej *serve.Reject
	errors.As(illErr, &illRej)
	if illRej.HTTPStatus() != 400 {
		t.Errorf("ill-typed status = %d, want 400", illRej.HTTPStatus())
	}
	if _, _, err := srv.Submit(serve.Submission{Tenant: "a", Name: "big",
		Source: "x = 1; " + strings.Repeat("x = x + 1; ", 64)}); rejectCode(t, err) != serve.RejectTooLarge {
		t.Errorf("oversized program: got %v", err)
	}
	// MaxLive 1, MaxQueue 1: first admitted, second queued, third bounced.
	if _, st, err := srv.Submit(walkerSub("a", 1, 0)); err != nil || st != serve.StatusAdmitted {
		t.Fatalf("first submit: %v %v", st, err)
	}
	if _, st, err := srv.Submit(walkerSub("a", 1, 0)); err != nil || st != serve.StatusQueued {
		t.Fatalf("second submit: %v %v", st, err)
	}
	_, _, err := srv.Submit(walkerSub("a", 1, 0))
	if rejectCode(t, err) != serve.RejectBackpressure {
		t.Errorf("overflow: got %v", err)
	}
	var rej *serve.Reject
	errors.As(err, &rej)
	if rej.HTTPStatus() != 429 {
		t.Errorf("backpressure status = %d, want 429", rej.HTTPStatus())
	}
	srv.Drain()
	if _, _, err := srv.Submit(walkerSub("a", 1, 0)); rejectCode(t, err) != serve.RejectDraining {
		t.Errorf("draining: got %v", err)
	}
}

// TestMetricsReadServerCounts: the serve.* series of a system's registry
// read the server's own counts and levels, mid-run and after it.
func TestMetricsReadServerCounts(t *testing.T) {
	reg := messengers.NewMetrics()
	sys, srv := simService(t, 2, messengers.Config{Metrics: reg}, serve.Config{
		Tenants: []serve.TenantConfig{
			{ID: "a", Quota: serve.Quota{MaxLive: 1, MaxQueue: 1}},
			{ID: "b", Quota: serve.Quota{StepBudget: 100}},
		},
	})
	for _, sub := range []serve.Submission{walkerSub("a", 1, 0), walkerSub("a", 1, 0), walkerSub("a", 1, 0), walkerSub("b", 50, 1)} {
		srv.Submit(sub) // admitted, queued, refused, admitted
	}
	gauge := func(name string) int64 {
		for _, s := range reg.Snapshot() {
			if s.Name == name {
				return s.Value
			}
		}
		t.Fatalf("no %s in the registry", name)
		return 0
	}
	for name, want := range map[string]int64{
		"serve.queue.depth": 1, "serve.sessions.live": 2, "serve.tenant.a.queue": 1, "serve.tenant.a.live": 1,
	} {
		if got := gauge(name); got != want {
			t.Errorf("before the run %s = %d, want %d", name, got, want)
		}
	}
	sys.RunSim()
	var admitted, completed, evicted int64
	for _, ts := range srv.Stats() {
		admitted, completed, evicted = admitted+ts.Admitted, completed+ts.Completed, evicted+ts.Evicted
		for suffix, want := range map[string]int64{
			"admitted": ts.Admitted, "rejected": ts.Rejected, "evicted": ts.Evicted,
			"completed": ts.Completed, "steps": ts.Steps, "hops": ts.Hops,
		} {
			if got := reg.CounterValue("serve.tenant." + ts.ID + "." + suffix); got != want {
				t.Errorf("serve.tenant.%s.%s = %d, Stats %d", ts.ID, suffix, got, want)
			}
		}
		if q, l := gauge("serve.tenant."+ts.ID+".queue"), gauge("serve.tenant."+ts.ID+".live"); q != 0 || l != 0 {
			t.Errorf("tenant %s: queue %d, live %d after the run", ts.ID, q, l)
		}
	}
	if admitted != 3 || completed != 2 || evicted != 1 {
		t.Errorf("admitted %d, completed %d, evicted %d; want 3, 2, 1", admitted, completed, evicted)
	}
	for name, want := range map[string]int64{"serve.admitted": admitted, "serve.completed": completed, "serve.evicted": evicted} {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, the tenants counted %d", name, got, want)
		}
	}
	if d, l := gauge("serve.queue.depth"), gauge("serve.sessions.live"); d != 0 || l != 0 {
		t.Errorf("queue depth %d, live sessions %d after the run", d, l)
	}
}

// evictionRun drives one eviction scenario on the sim engine and returns
// the completions and final stats.
func evictionRun(t *testing.T, quota serve.Quota, sub serve.Submission) (serve.Completion, serve.TenantStats, *messengers.System) {
	t.Helper()
	var comps []serve.Completion
	sys, srv := simService(t, 2, messengers.Config{}, serve.Config{
		Tenants:    []serve.TenantConfig{{ID: "a", Quota: quota}},
		OnComplete: func(c serve.Completion) { comps = append(comps, c) },
	})
	if _, _, err := srv.Submit(sub); err != nil {
		t.Fatal(err)
	}
	// RunSim returning at all is the liveness statement: the kernel drains
	// only when the GVT/termination books balance, so an eviction that
	// leaked liveness (or wedged GVT) would hang here, not just fail.
	sys.RunSim()
	if len(comps) != 1 {
		t.Fatalf("%d completions, want 1", len(comps))
	}
	if live := sys.Live(); live != 0 {
		t.Fatalf("%d live work after quiescence", live)
	}
	if srv.LiveSessions() != 0 {
		t.Fatal("server still tracks live sessions")
	}
	return comps[0], srv.Stats()[0], sys
}

// TestStepBudgetEvictionMidHopSim: a multi-hop walker whose instruction
// budget trips partway through its journey must terminate cleanly — the
// session ends as evicted, its liveness is released, and the system
// quiesces with GVT advancing. (Satellite of the admission tentpole.)
func TestStepBudgetEvictionMidHopSim(t *testing.T) {
	comp, ts, sys := evictionRun(t,
		serve.Quota{StepBudget: 100},
		walkerSub("a", 50, 0))
	if !comp.Evicted {
		t.Fatal("walker was not evicted")
	}
	if !strings.Contains(comp.Reason, "step budget") {
		t.Errorf("reason = %q", comp.Reason)
	}
	if ts.MaxSessionSteps > 100 {
		t.Errorf("session consumed %d steps over budget 100", ts.MaxSessionSteps)
	}
	if ts.Violations != 0 {
		t.Errorf("%d violations", ts.Violations)
	}
	if ev := sys.TotalStats().Evicted; ev != 1 {
		t.Errorf("daemon evicted count = %d, want 1", ev)
	}
	// The walker made progress before tripping: it hopped at least once.
	if ts.Hops == 0 {
		t.Error("walker never hopped; budget tripped before mid-journey")
	}
	if len(sys.Errors()) != 0 {
		t.Errorf("eviction recorded as program error: %v", sys.Errors())
	}
}

// TestHopRateEviction: the hop-rate bucket empties mid-journey and the
// walker is evicted at a nav boundary.
func TestHopRateEviction(t *testing.T) {
	comp, ts, _ := evictionRun(t,
		serve.Quota{HopRate: 0.5, HopBurst: 3},
		walkerSub("a", 50, 0))
	if !comp.Evicted {
		t.Fatal("walker was not evicted")
	}
	if !strings.Contains(comp.Reason, "hop rate") {
		t.Errorf("reason = %q", comp.Reason)
	}
	if ts.Hops == 0 || ts.Hops > 3 {
		t.Errorf("charged hops = %d, want 1..3 (burst)", ts.Hops)
	}
}

// TestMemCapEviction: a Messenger carrying more serialized state than the
// tenant's cap is evicted at the first nav boundary. The program carries
// an aggregate so the kind verifier derives no static state bound — this
// must take the dynamic CheckMem path, not the admission pre-check.
func TestMemCapEviction(t *testing.T) {
	sub := walkerSub("a", 5, 0)
	sub.Source = "pad = array(2); " + walker
	sub.Vars["ballast"] = messengers.StrValue(strings.Repeat("m", 4096))
	comp, _, _ := evictionRun(t, serve.Quota{MemBudget: 512}, sub)
	if !comp.Evicted {
		t.Fatal("oversized messenger was not evicted")
	}
	if !strings.Contains(comp.Reason, "exceeds cap") {
		t.Errorf("reason = %q", comp.Reason)
	}
}

// TestStateBoundRejection: when the kind verifier proves every value the
// Messenger can carry at a nav pause is a scalar, the worst-case snapshot
// size is static — a submission whose bound (program state plus injected
// ballast) already exceeds the memory cap is refused at admission, before
// a single VM step, instead of being launched and evicted at its first
// hop.
func TestStateBoundRejection(t *testing.T) {
	_, srv := simService(t, 2, messengers.Config{}, serve.Config{
		Tenants: []serve.TenantConfig{{ID: "a", Quota: serve.Quota{MemBudget: 512}}},
	})
	sub := walkerSub("a", 5, 0) // all-scalar walker: statically boundable
	sub.Vars["ballast"] = messengers.StrValue(strings.Repeat("m", 4096))
	_, _, err := srv.Submit(sub)
	if rejectCode(t, err) != serve.RejectStateBound {
		t.Fatalf("over-bound submission: got %v", err)
	}
	var rej *serve.Reject
	errors.As(err, &rej)
	if rej.HTTPStatus() != 413 {
		t.Errorf("state-bound status = %d, want 413", rej.HTTPStatus())
	}
	ts := srv.Stats()[0]
	if ts.Admitted != 0 || ts.Live != 0 || ts.Steps != 0 {
		t.Errorf("rejected submission left traces: %+v", ts)
	}
	// The same program under the cap (no ballast) is admitted: the bound
	// itself is small.
	if _, _, err := srv.Submit(walkerSub("a", 1, 0)); err != nil {
		t.Errorf("under-bound submission rejected: %v", err)
	}
}

// TestIllTypedRejectionChargesNoSteps: a kind-faulting program must be
// refused by the verifier at admission — no session is created, no VM
// step is metered, and the per-tenant ill-typed counter (surfaced via
// /v1/stats) records the refusal.
func TestIllTypedRejectionChargesNoSteps(t *testing.T) {
	_, srv := simService(t, 2, messengers.Config{}, serve.Config{
		Tenants: []serve.TenantConfig{{ID: "a", Quota: serve.Quota{StepBudget: 4096}}},
	})
	_, _, err := srv.Submit(serve.Submission{
		Tenant: "a", Name: "ill",
		// Both branches leave m a proven Str (the join keeps the kind
		// exact), so subtracting from it faults on every execution.
		Source: `if (n > 0) { m = "big"; } else { m = "small"; } x = m - 1;`,
	})
	if rejectCode(t, err) != serve.RejectIllTyped {
		t.Fatalf("ill-typed program: got %v", err)
	}
	if !strings.Contains(err.Error(), "ill-typed") {
		t.Errorf("rejection does not carry the proof: %v", err)
	}
	ts := srv.Stats()[0]
	if ts.IllTyped != 1 || ts.Rejected != 1 {
		t.Errorf("ill_typed=%d rejected=%d, want 1/1", ts.IllTyped, ts.Rejected)
	}
	if ts.Steps != 0 || ts.Admitted != 0 || ts.Live != 0 {
		t.Errorf("ill-typed program touched the VM: %+v", ts)
	}
	if srv.LiveSessions() != 0 {
		t.Error("rejected submission left a live session")
	}
}

// TestStepBudgetEvictionMidHopTCP is the same mid-hop budget exhaustion on
// the real TCP engine: clean termination, released liveness, quiescence.
func TestStepBudgetEvictionMidHopTCP(t *testing.T) {
	done := make(chan serve.Completion, 1)
	sys, srv := tcpService(t, 2, messengers.Config{}, serve.Config{
		Tenants:    []serve.TenantConfig{{ID: "a", Quota: serve.Quota{StepBudget: 100}}},
		OnComplete: func(c serve.Completion) { done <- c },
	})
	if _, _, err := srv.Submit(walkerSub("a", 50, 0)); err != nil {
		t.Fatal(err)
	}
	var comp serve.Completion
	select {
	case comp = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("evicted session never completed")
	}
	if !comp.Evicted || !strings.Contains(comp.Reason, "step budget") {
		t.Fatalf("completion = %+v", comp)
	}
	srv.Drain()
	srv.WaitIdle()
	ts := srv.Stats()[0]
	if ts.MaxSessionSteps > 100 {
		t.Errorf("session consumed %d steps over budget 100", ts.MaxSessionSteps)
	}
	if ts.Violations != 0 {
		t.Errorf("%d violations", ts.Violations)
	}
	if ev := sys.TotalStats().Evicted; ev == 0 {
		t.Error("no daemon recorded the eviction")
	}
	if len(sys.Errors()) != 0 {
		t.Errorf("eviction recorded as program error: %v", sys.Errors())
	}
}

// TestFairShareQueueing: one tenant floods its queue; another tenant's
// trickle must still be admitted and complete (round-robin pump, not FIFO
// across tenants).
func TestFairShareQueueing(t *testing.T) {
	quota := serve.Quota{MaxLive: 1, MaxQueue: 64}
	counts := map[string]int{}
	sys, srv := simService(t, 2, messengers.Config{}, serve.Config{
		Tenants: []serve.TenantConfig{
			{ID: "flood", Quota: quota},
			{ID: "trickle", Quota: quota},
		},
		OnComplete: func(c serve.Completion) { counts[c.Tenant]++ },
	})
	for i := 0; i < 30; i++ {
		if _, _, err := srv.Submit(walkerSub("flood", 2, i%2)); err != nil {
			t.Fatalf("flood %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, _, err := srv.Submit(walkerSub("trickle", 2, i%2)); err != nil {
			t.Fatalf("trickle %d: %v", i, err)
		}
	}
	sys.RunSim()
	if counts["flood"] != 30 || counts["trickle"] != 3 {
		t.Errorf("completions = %v, want flood:30 trickle:3", counts)
	}
	for _, ts := range srv.Stats() {
		if ts.Queue != 0 || ts.Live != 0 {
			t.Errorf("tenant %s: queue=%d live=%d after quiescence", ts.ID, ts.Queue, ts.Live)
		}
	}
}

// TestQuotaUnderFaults: message drops and duplicates (with recovery
// retransmitting and suppressing) must not corrupt quota accounting — no
// session exceeds its budget, and every admitted session terminates.
func TestQuotaUnderFaults(t *testing.T) {
	var comps int
	plan := &messengers.FaultPlan{Seed: 7, Drop: 0.15, Dup: 0.25}
	sys, srv := simService(t, 2, messengers.Config{Faults: plan, RecoveryRetain: 8}, serve.Config{
		Tenants:    []serve.TenantConfig{{ID: "a", Quota: serve.Quota{StepBudget: 4096, MaxLive: 8, MaxQueue: 64}}},
		OnComplete: func(serve.Completion) { comps++ },
	})
	const n = 24
	for i := 0; i < n; i++ {
		if _, _, err := srv.Submit(walkerSub("a", 4, i%2)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	sys.RunSim()
	ts := srv.Stats()[0]
	if ts.Admitted != n {
		t.Errorf("admitted = %d, want %d", ts.Admitted, n)
	}
	if comps != n {
		t.Errorf("%d completions, want %d", comps, n)
	}
	if ts.Violations != 0 {
		t.Errorf("%d quota violations under faults", ts.Violations)
	}
	if ts.MaxSessionSteps > 4096 {
		t.Errorf("session consumed %d steps over budget", ts.MaxSessionSteps)
	}
	if srv.LiveSessions() != 0 {
		t.Error("sessions leaked under faults")
	}
}

// mixSub is the i-th session of a mixed load: walkers round-robin over the
// daemons, every hogEvery-th one a runaway that only the step budget stops.
func mixSub(tenant string, i, daemons, hops, hogEvery int) serve.Submission {
	sub := walkerSub(tenant, hops, i%daemons)
	if i%hogEvery == hogEvery-1 {
		sub.Name, sub.Source, sub.Vars = "hog", hog, nil
	}
	return sub
}

// TestHogEvictionAmongWalkers: runaway hogs must be evicted while
// well-behaved walkers complete untouched, on shared daemons.
func TestHogEvictionAmongWalkers(t *testing.T) {
	evicted, completed := 0, 0
	sys, srv := simService(t, 2, messengers.Config{}, serve.Config{
		Tenants: []serve.TenantConfig{{ID: "a", Quota: serve.Quota{StepBudget: 2048, MaxLive: 8, MaxQueue: 64}}},
		OnComplete: func(c serve.Completion) {
			if c.Evicted {
				evicted++
			} else {
				completed++
			}
		},
	})
	for i := 0; i < 12; i++ {
		if _, _, err := srv.Submit(mixSub("a", i, 2, 3, 4)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	sys.RunSim()
	if evicted != 3 || completed != 9 {
		t.Errorf("evicted=%d completed=%d, want 3/9", evicted, completed)
	}
}

// TestQuotasHoldAtScale is the service's load test: 100 000 sessions (5 000
// under -short) from four well-behaved tenants, every 50th a hog, driven
// through four simulated daemons by a chain that paces itself on
// backpressure, plus one burst from a tenant whose admission quota cannot
// take it. No session may run past its step budget, every hog and nothing
// else is evicted, every admission ends in exactly one completion, nothing
// is left live, and the burst bounces instead of queueing. It is the only
// test of the InjectRate/InjectBurst token bucket.
func TestQuotasHoldAtScale(t *testing.T) {
	sessions := 100000
	if testing.Short() {
		sessions = 5000
	}
	const (
		daemons, tenants, hops = 4, 4, 4
		budget                 = 4096
		hogEvery               = 50
		burst                  = 500
	)
	var roster []serve.TenantConfig
	for i := 0; i < tenants; i++ {
		// Admission is paced by live cap and queue, not by rate: the driver
		// backs off when a tenant pushes back.
		roster = append(roster, serve.TenantConfig{ID: fmt.Sprintf("t%d", i), Quota: serve.Quota{
			StepBudget: budget, MemBudget: 64 << 10, MaxQueue: 512, MaxLive: 256,
		}})
	}
	// 20 sessions/s, a bucket of 5 and almost no queue.
	roster = append(roster, serve.TenantConfig{ID: "greedy", Quota: serve.Quota{
		StepBudget: budget, InjectRate: 20, InjectBurst: 5, MaxQueue: 4,
	}})

	var completed, evicted int64
	sys, srv := simService(t, daemons, messengers.Config{}, serve.Config{
		Tenants: roster,
		OnComplete: func(c serve.Completion) {
			if c.Evicted {
				evicted++
			} else {
				completed++
			}
		},
	})
	k := sys.Kernel()

	// Submit until the target is admitted or a tenant pushes back; a
	// rejection pauses the chain, so offered load tracks the admission rate.
	admitted := 0
	var tick func()
	tick = func() {
		backoff := sim.Millisecond
		for admitted < sessions {
			if _, _, err := srv.Submit(mixSub(fmt.Sprintf("t%d", admitted%tenants), admitted, daemons, hops, hogEvery)); err != nil {
				backoff = 5 * sim.Millisecond
				break
			}
			admitted++
		}
		if admitted < sessions {
			k.After(backoff, tick)
		}
	}
	k.At(0, tick)
	bounced := 0
	k.At(100*sim.Millisecond, func() {
		for i := 0; i < burst; i++ {
			if _, _, err := srv.Submit(walkerSub("greedy", hops, 0)); err != nil {
				bounced++
			}
		}
	})
	sys.RunSim()

	var statAdmitted, statEvicted int64
	for _, ts := range srv.Stats() {
		statAdmitted += ts.Admitted
		statEvicted += ts.Evicted
		if ts.Violations != 0 {
			t.Errorf("tenant %s: %d quota violations", ts.ID, ts.Violations)
		}
		if ts.MaxSessionSteps > budget {
			t.Errorf("tenant %s: a session consumed %d steps, budget %d", ts.ID, ts.MaxSessionSteps, budget)
		}
	}
	if hogs := int64(sessions / hogEvery); evicted != hogs || statEvicted != hogs {
		t.Errorf("evicted %d sessions (stats say %d), want the %d hogs", evicted, statEvicted, hogs)
	}
	if completed+evicted != statAdmitted {
		t.Errorf("%d completions + %d evictions for %d admissions", completed, evicted, statAdmitted)
	}
	if live := srv.LiveSessions(); live != 0 {
		t.Errorf("%d sessions still live after the run", live)
	}
	if bounced < burst*4/5 {
		t.Errorf("greedy tenant was not backpressured: %d of %d rejected", bounced, burst)
	}
	t.Logf("%d sessions: %d completed, %d evicted, greedy burst %d/%d rejected", sessions, completed, evicted, bounced, burst)
}

// TestDrainTCP: draining rejects new work, flushes queues, and WaitIdle
// returns once in-flight sessions finish.
func TestDrainTCP(t *testing.T) {
	_, srv := tcpService(t, 2, messengers.Config{}, serve.Config{
		Tenants: []serve.TenantConfig{{ID: "a", Quota: serve.Quota{MaxLive: 2, MaxQueue: 16}}},
	})
	for i := 0; i < 8; i++ {
		if _, _, err := srv.Submit(walkerSub("a", 2, i%2)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	srv.Drain()
	if _, _, err := srv.Submit(walkerSub("a", 2, 0)); rejectCode(t, err) != serve.RejectDraining {
		t.Errorf("post-drain submit: %v", err)
	}
	doneCh := make(chan struct{})
	go func() { srv.WaitIdle(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("WaitIdle never returned")
	}
	ts := srv.Stats()[0]
	if ts.Queue != 0 {
		t.Errorf("queue = %d after drain", ts.Queue)
	}
	if ts.Live != 0 {
		t.Errorf("live = %d after drain", ts.Live)
	}
}

// TestHTTPFrontEnd drives the JSON API end to end on the TCP engine.
func TestHTTPFrontEnd(t *testing.T) {
	done := make(chan serve.Completion, 4)
	_, srv := tcpService(t, 2, messengers.Config{}, serve.Config{
		Tenants:    []serve.TenantConfig{{ID: "a", Quota: serve.Quota{StepBudget: 4096, MaxLive: 4, MaxQueue: 8}}},
		OnComplete: func(c serve.Completion) { done <- c },
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	code, out := post(`{"tenant":"a","name":"walker","node":"r0","daemon":0,
		"source":` + fmt.Sprintf("%q", walker) + `,"vars":{"hops":2}}`)
	if code != http.StatusAccepted || out["status"] != "admitted" {
		t.Fatalf("submit: %d %v", code, out)
	}
	select {
	case c := <-done:
		if c.Evicted {
			t.Errorf("walker evicted: %s", c.Reason)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session never completed")
	}

	if code, _ := post(`{"tenant":"nobody","name":"w","source":"x = 1;"}`); code != 403 {
		t.Errorf("unknown tenant status = %d, want 403", code)
	}
	if code, _ := post(`{"tenant":"a","name":"bad","source":"hop(("}`); code != 400 {
		t.Errorf("verify failure status = %d, want 400", code)
	}

	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Tenants []serve.TenantStats `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(stats.Tenants) != 1 || stats.Tenants[0].Admitted == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

// blanks is an endless run of spaces.
type blanks struct{}

func (blanks) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// countingReader counts the bytes the server has taken from a request body.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestHTTPSubmitBodyIsBounded: the server stops reading a submit body at
// its cap (http.go's maxSubmitBody) however long the client goes on, and a
// body of exactly the cap is still a submission.
func TestHTTPSubmitBodyIsBounded(t *testing.T) {
	const submitCap = 1 << 20
	_, srv := simService(t, 2, messengers.Config{}, serve.Config{
		Tenants: []serve.TenantConfig{{ID: "a"}},
	})
	// A body is pad spaces, then tail.
	body := func(pad int, tail string) *countingReader {
		return &countingReader{r: io.MultiReader(io.LimitReader(blanks{}, int64(pad)), strings.NewReader(tail))}
	}
	post := func(body *countingReader) (int, map[string]any) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", body))
		var out map[string]any
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return rec.Code, out
	}

	flood := body(1<<30, "")
	code, out := post(flood)
	if code != http.StatusRequestEntityTooLarge || out["status"] != "rejected" {
		t.Errorf("1 GB body: %d %v, want 413 rejected", code, out)
	}
	// One byte past the cap is what tells a body of the cap from a longer one.
	if flood.n > submitCap+1 {
		t.Errorf("1 GB body: server read %d bytes of it, cap is %d", flood.n, submitCap)
	}

	req := `{"tenant":"a","name":"w","node":"r0","source":"x = 1;"}`
	atCap := body(submitCap-len(req), req)
	if code, out := post(atCap); code != http.StatusAccepted || out["status"] != "admitted" {
		t.Errorf("body of the cap: %d %v, want 202 admitted", code, out)
	}
	if atCap.n != submitCap {
		t.Errorf("body of the cap: server read %d bytes of %d", atCap.n, submitCap)
	}
	if code, _ := post(body(submitCap-len(req)+1, req)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("body of the cap and one byte: %d, want 413", code)
	}
}

// TestRecoveryRespawnDenied: ensure unknown-session gates exist and deny.
// A direct Session lookup for a session that never existed must return a
// gate that refuses execution rather than nil (the recovery respawn path
// depends on this to keep finished sessions from re-running over budget).
func TestRecoveryRespawnDenied(t *testing.T) {
	_, srv := simService(t, 2, messengers.Config{}, serve.Config{
		Tenants: []serve.TenantConfig{{ID: "a"}},
	})
	gate := srv.Session("a", 999)
	if gate == nil {
		t.Fatal("unknown session resolved to nil gate")
	}
	if gate.Allowance() != 0 {
		t.Error("unknown session was granted instruction allowance")
	}
	if err := gate.ChargeHop(0, 1); err == nil {
		t.Error("unknown session was allowed to hop")
	}
}
