package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"messengers/internal/bytecode"
	"messengers/internal/obs"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// Quota bounds one tenant's resource consumption. Zero values mean
// unlimited for budgets and rates; bursts default to one second of rate.
type Quota struct {
	// StepBudget is the VM instruction budget per session, enforced by the
	// step meter across every Messenger (and clone) the session spawns.
	StepBudget int64 `json:"step_budget"`
	// MemBudget caps the serialized Messenger state size in bytes, checked
	// at nav boundaries before the Messenger replicates.
	MemBudget int `json:"mem_budget"`
	// HopRate/HopBurst form the hop-rate token bucket (hops per second),
	// charged at nav boundaries, one token per replica.
	HopRate  float64 `json:"hop_rate"`
	HopBurst float64 `json:"hop_burst"`
	// InjectRate/InjectBurst form the session-admission token bucket
	// (sessions per second).
	InjectRate  float64 `json:"inject_rate"`
	InjectBurst float64 `json:"inject_burst"`
	// MaxQueue caps queued submissions awaiting admission; past it the
	// server rejects with explicit backpressure. Zero queues nothing:
	// submissions are admitted now or rejected now.
	MaxQueue int `json:"max_queue"`
	// MaxLive caps concurrently live sessions (0 = unlimited).
	MaxLive int `json:"max_live"`
	// MaxProgram caps submitted program size in bytes (0 = unlimited).
	MaxProgram int `json:"max_program"`
}

// TenantConfig declares one tenant account.
type TenantConfig struct {
	ID string `json:"id"`
	Quota
}

// bucket is a token bucket over engine time (virtual on the sim engine,
// wall time on real transports). Caller synchronizes.
type bucket struct {
	rate   float64 // tokens per sim.Second; <= 0 means unlimited
	burst  float64
	tokens float64
	last   sim.Time
}

func newBucket(rate, burst float64) bucket {
	if burst <= 0 {
		burst = rate // default burst: one second of rate
	}
	if burst < 1 {
		burst = 1
	}
	return bucket{rate: rate, burst: burst, tokens: burst}
}

func (b *bucket) refill(now sim.Time) {
	if now > b.last {
		b.tokens += b.rate * float64(now-b.last) / float64(sim.Second)
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// take debits n tokens if available.
func (b *bucket) take(now sim.Time, n float64) bool {
	if b.rate <= 0 {
		return true
	}
	b.refill(now)
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// wait returns how long until n tokens accumulate (0 when available now).
func (b *bucket) wait(now sim.Time, n float64) sim.Time {
	if b.rate <= 0 {
		return 0
	}
	b.refill(now)
	if b.tokens >= n {
		return 0
	}
	return sim.Time((n - b.tokens) / b.rate * float64(sim.Second))
}

// account is one tenant's admission state.
type account struct {
	id string
	q  Quota

	// mu guards the buckets and the submission queue.
	mu    sync.Mutex
	hopTB bucket
	injTB bucket
	queue []*pending

	live            atomic.Int64
	admitted        atomic.Int64
	rejected        atomic.Int64
	illTyped        atomic.Int64
	evicted         atomic.Int64
	completed       atomic.Int64
	steps           atomic.Int64
	hops            atomic.Int64
	maxSessionSteps atomic.Int64
	violations      atomic.Int64
}

func newAccount(cfg TenantConfig) *account {
	return &account{
		id:    cfg.ID,
		q:     cfg.Quota,
		hopTB: newBucket(cfg.HopRate, cfg.HopBurst),
		injTB: newBucket(cfg.InjectRate, cfg.InjectBurst),
	}
}

// register makes m read the tenant's serve.tenant.<id>.* series from the
// account's own counts.
func (a *account) register(m *obs.Metrics) {
	for _, c := range []struct {
		suffix string
		n      *atomic.Int64
	}{
		{"admitted", &a.admitted}, {"rejected", &a.rejected}, {"evicted", &a.evicted},
		{"completed", &a.completed}, {"steps", &a.steps}, {"hops", &a.hops},
	} {
		m.CounterFunc("serve.tenant."+a.id+"."+c.suffix, func() int64 { return c.n.Load() }) //lint:obsname per-tenant series, bounded by the tenant config
	}
	//lint:obsname per-tenant series, bounded by the tenant config
	m.GaugeFunc("serve.tenant."+a.id+".queue", func() int64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return int64(len(a.queue))
	})
	m.GaugeFunc("serve.tenant."+a.id+".live", func() int64 { return a.live.Load() }) //lint:obsname per-tenant series, bounded by the tenant config
}

// pending is one submission: admitted immediately or parked in the
// tenant's queue until the admission bucket and live cap allow it.
type pending struct {
	id     uint64
	prog   *bytecode.Program
	node   string
	daemon int
	vars   map[string]value.Value
	enq    sim.Time
}

// maxAllowance is the step allowance reported for unlimited sessions —
// effectively infinite, but small enough that the VM's own arithmetic on
// the limit cannot overflow.
const maxAllowance = int64(1) << 60

// session is one admitted session's quota gate. It implements
// core.SessionGate; every method may run concurrently on multiple daemon
// executors (the session's clones execute in parallel).
type session struct {
	acct      *account
	id        uint64
	budget    int64
	start     sim.Time
	stepsLeft atomic.Int64
	live      atomic.Int64
	evict     atomic.Bool
	reason    atomic.Value // string
}

func (ss *session) markEvicted(reason string) {
	if ss.evict.CompareAndSwap(false, true) {
		ss.reason.Store(reason)
	}
}

// Allowance implements vm.StepMeter: the session's remaining instruction
// allowance, shared by all of its Messengers.
func (ss *session) Allowance() int64 {
	if ss.budget <= 0 {
		return maxAllowance
	}
	a := ss.stepsLeft.Load()
	if a <= 0 {
		ss.markEvicted("step budget exhausted")
	}
	return a
}

// Charge implements vm.StepMeter: debits executed instructions.
func (ss *session) Charge(n int64) {
	if n == 0 {
		return
	}
	ss.acct.steps.Add(n)
	if ss.budget > 0 {
		ss.stepsLeft.Add(-n)
	}
}

// ChargeHop debits n hops from the tenant's hop-rate bucket.
func (ss *session) ChargeHop(now sim.Time, n int) error {
	a := ss.acct
	a.mu.Lock()
	ok := a.hopTB.take(now, float64(n))
	a.mu.Unlock()
	if !ok {
		err := fmt.Errorf("serve: tenant %q hop rate exceeded", a.id)
		ss.markEvicted(err.Error())
		return err
	}
	a.hops.Add(int64(n))
	return nil
}

// Evicted records that a daemon destroyed one of the session's
// Messengers over quota.
func (ss *session) Evicted(err error) { ss.markEvicted(err.Error()) }

// CheckMem vets the Messenger's serialized size against the tenant's
// value-memory cap.
func (ss *session) CheckMem(bytes int) error {
	if mb := ss.acct.q.MemBudget; mb > 0 && bytes > mb {
		err := fmt.Errorf("serve: tenant %q messenger state %dB exceeds cap %dB", ss.acct.id, bytes, mb)
		ss.markEvicted(err.Error())
		return err
	}
	return nil
}

// deniedGate is the gate for sessions the server does not know — typically
// an at-least-once recovery respawn of a session that already completed.
// Zero allowance makes the daemon evict the Messenger before it executes a
// single instruction, so a finished session can never exceed its budget
// through re-execution.
type deniedGate struct{}

func (deniedGate) Allowance() int64 { return 0 }
func (deniedGate) Charge(int64)     {}
func (deniedGate) ChargeHop(sim.Time, int) error {
	return fmt.Errorf("serve: session no longer live")
}
func (deniedGate) CheckMem(int) error { return nil }
func (deniedGate) Evicted(error)      {}
