// Package serve turns a MESSENGERS system into a multi-tenant service: an
// admission front end that accepts MSL programs from untrusted tenants,
// verifies them, and injects them as budgeted sessions.
//
// The paper's daemons execute whatever Messengers reach them; serve adds
// the operational layer a shared deployment needs. Every submission is
// compiled (or decoded) through the bytecode verifier before it can
// execute. Each tenant has an account with enforced quotas: a per-session
// instruction-step budget metered inside the VM, a cap on serialized
// Messenger state, and a hop-rate token bucket charged at nav boundaries.
// Session admission itself goes through a second token bucket with a
// bounded fair-share queue behind it; when the queue is full the server
// rejects with explicit backpressure (HTTP 429 via the handler in http.go)
// instead of letting latency collapse.
//
// Policy lives here; mechanism lives in internal/core, which consults the
// server through the core.Gate interface without importing this package.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"messengers/internal/bytecode"
	"messengers/internal/compile"
	"messengers/internal/core"
	"messengers/internal/obs"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// Reject is a typed admission refusal. It is the only error kind Submit
// returns for policy decisions, so callers can map it to a transport
// status (HTTPStatus) and distinguish backpressure from bad programs.
type Reject struct {
	Code RejectCode
	Msg  string
}

type RejectCode int

const (
	// RejectUnknownTenant: no account for the tenant ID.
	RejectUnknownTenant RejectCode = iota + 1
	// RejectVerify: the program failed compilation or bytecode verification.
	RejectVerify
	// RejectTooLarge: the program exceeds the tenant's size cap.
	RejectTooLarge
	// RejectBackpressure: admission bucket empty and queue full — retry later.
	RejectBackpressure
	// RejectDraining: the server is shutting down.
	RejectDraining
	// RejectIllTyped: the kind-flow verifier proved the program faults on
	// every execution (a distinct 400 from RejectVerify so tenants can tell
	// a type proof from a parse error, and so stats count it separately).
	RejectIllTyped
	// RejectStateBound: the verifier derived a static bound on the
	// Messenger's serialized state and it already exceeds the tenant's
	// memory cap — the session would be evicted at its first nav boundary,
	// so it is refused before a single VM step.
	RejectStateBound
)

func (r *Reject) Error() string { return fmt.Sprintf("serve: %s (%d)", r.Msg, r.HTTPStatus()) }

// HTTPStatus maps the rejection to its transport status code.
func (r *Reject) HTTPStatus() int {
	switch r.Code {
	case RejectUnknownTenant:
		return 403
	case RejectVerify, RejectIllTyped:
		return 400
	case RejectTooLarge, RejectStateBound:
		return 413
	case RejectBackpressure:
		return 429
	case RejectDraining:
		return 503
	}
	return 500
}

// Submission is one tenant request to run an MSL program.
type Submission struct {
	Tenant string
	// Name labels the program (namespaced per tenant in the registry).
	Name string
	// Source is MSL text, compiled and verified on first sight. Bytecode,
	// if set, takes precedence and is decoded through the same verifier.
	Source   string
	Bytecode []byte
	// Node is the logical node to inject at ("" = server default).
	Node string
	// Daemon picks the daemon (-1 = server round-robin).
	Daemon int
	Vars   map[string]value.Value
}

// Status reports what happened to an accepted submission.
type Status int

const (
	StatusAdmitted Status = iota + 1
	StatusQueued
)

// Completion describes one finished session.
type Completion struct {
	Tenant  string
	Session uint64
	// Evicted is true when the session was destroyed for exceeding a quota
	// rather than running to completion.
	Evicted bool
	Reason  string
	// Latency is submit-to-completion in engine time (queue wait included).
	Latency sim.Time
	// Steps is the session's metered instruction count.
	Steps int64
}

// Config configures a Server.
type Config struct {
	Tenants []TenantConfig
	// DefaultNode is the injection node when a submission names none.
	DefaultNode string
	// Clock supplies engine time for token buckets and latency. On the sim
	// engine pass Kernel.Now for virtual time; nil defaults to wall time.
	Clock func() sim.Time
	// After schedules a callback (the queue pump re-arm) after a delay. On
	// the sim engine pass a Kernel.At wrapper; nil defaults to
	// time.AfterFunc.
	After func(d sim.Time, fn func())
	// OnComplete, if set, is invoked for every session completion, on the
	// daemon executor that finished the session. Keep it fast.
	OnComplete func(Completion)
}

// serverObs holds the server-wide counters no account keeps.
type serverObs struct {
	queued                            *obs.Counter
	rejVerify, rejTenant, rejTooLarge *obs.Counter
	rejBackpressure, rejDraining      *obs.Counter
	rejIllTyped, rejStateBound        *obs.Counter
	unknown                           *obs.Counter
}

func newServerObs(m *obs.Metrics) *serverObs {
	return &serverObs{
		queued:          m.Counter("serve.queued"),
		rejVerify:       m.Counter("serve.reject.verify"),
		rejTenant:       m.Counter("serve.reject.tenant"),
		rejTooLarge:     m.Counter("serve.reject.toolarge"),
		rejBackpressure: m.Counter("serve.reject.backpressure"),
		rejDraining:     m.Counter("serve.reject.draining"),
		rejIllTyped:     m.Counter("serve.reject.illtyped"),
		rejStateBound:   m.Counter("serve.reject.statebound"),
		unknown:         m.Counter("serve.sessions.unknown"),
	}
}

// register makes m read the server-wide admitted/completed/evicted counts
// and the queue and live-session levels where the server keeps them.
func (s *Server) register(m *obs.Metrics) {
	sum := func(n func(*account) int64) func() int64 {
		return func() int64 {
			var t int64
			for _, id := range s.order {
				t += n(s.accounts[id])
			}
			return t
		}
	}
	m.CounterFunc("serve.admitted", sum(func(a *account) int64 { return a.admitted.Load() }))
	m.CounterFunc("serve.completed", sum(func(a *account) int64 { return a.completed.Load() }))
	m.CounterFunc("serve.evicted", sum(func(a *account) int64 { return a.evicted.Load() }))
	m.GaugeFunc("serve.queue.depth", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.queueDepth)
	})
	m.GaugeFunc("serve.sessions.live", func() int64 { return int64(s.LiveSessions()) })
	for _, id := range s.order {
		s.accounts[id].register(m)
	}
}

type progKey struct {
	tenant, name, content string
}

// Server is the admission front end. It implements core.Gate.
type Server struct {
	sys   *core.System
	cfg   Config
	clock func() sim.Time
	after func(sim.Time, func())
	som   *serverObs

	// mu guards admission state: accounts' queues are reached through it
	// for fair-share pumping, plus the program cache, session counter,
	// daemon cursor, and drain flag. Never held while taking smu.
	mu          sync.Mutex
	accounts    map[string]*account
	order       []string // fair-share round-robin order (registration order)
	rr          int      // next account offset the pump starts from
	rrDaemon    int
	progCache   map[progKey]*bytecode.Program
	nextSession uint64
	queueDepth  int // total queued across accounts
	pumpArmed   bool
	draining    bool

	// smu guards only membership of the live-session table. Gate lookups
	// take the read lock; completion removes under the write lock.
	smu      sync.RWMutex
	sessions map[uint64]*session

	// idleMu/idleCond track total live sessions for WaitIdle.
	idleMu    sync.Mutex
	idleCond  *sync.Cond
	totalLive int
}

// New builds a Server over sys and attaches it as the system's admission
// gate. Call before injecting any tenant work.
func New(sys *core.System, cfg Config) (*Server, error) {
	s := &Server{
		sys:       sys,
		cfg:       cfg,
		clock:     cfg.Clock,
		after:     cfg.After,
		som:       newServerObs(sys.Metrics()),
		accounts:  make(map[string]*account),
		progCache: make(map[progKey]*bytecode.Program),
		sessions:  make(map[uint64]*session),
	}
	s.idleCond = sync.NewCond(&s.idleMu)
	if s.clock == nil {
		start := time.Now() //lint:wallclock serve defaults to wall time off the sim engine
		s.clock = func() sim.Time {
			return sim.Time(time.Since(start)) //lint:wallclock see above
		}
	}
	if s.after == nil {
		s.after = func(d sim.Time, fn func()) {
			time.AfterFunc(time.Duration(d), fn) //lint:wallclock see above
		}
	}
	for _, tc := range cfg.Tenants {
		if tc.ID == "" {
			return nil, fmt.Errorf("serve: tenant with empty ID")
		}
		if _, dup := s.accounts[tc.ID]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant %q", tc.ID)
		}
		s.accounts[tc.ID] = newAccount(tc)
		s.order = append(s.order, tc.ID)
	}
	if m := sys.Metrics(); m != nil {
		s.register(m)
	}
	sys.SetAdmission(s)
	return s, nil
}

// Session implements core.Gate: resolve the quota gate for a
// materializing Messenger. Unknown sessions get a deny-everything gate.
func (s *Server) Session(tenant string, id uint64) core.SessionGate {
	s.smu.RLock()
	ss := s.sessions[id]
	s.smu.RUnlock()
	if ss == nil || ss.acct.id != tenant {
		s.som.unknown.Inc()
		return deniedGate{}
	}
	return ss
}

// SessionWork implements core.Gate: mirror per-session liveness deltas.
// Zero is terminal — replication increments before the parent releases its
// slot, so a session's count never rebounds from zero.
func (s *Server) SessionWork(tenant string, id uint64, delta int) {
	s.smu.RLock()
	ss := s.sessions[id]
	s.smu.RUnlock()
	if ss == nil || ss.acct.id != tenant {
		return
	}
	if ss.live.Add(int64(delta)) == 0 {
		s.finish(ss)
	}
}

// finish retires a completed (or evicted) session: bookkeeping, the
// completion callback, and a pump pass for the admission slot it freed.
func (s *Server) finish(ss *session) {
	s.smu.Lock()
	if _, live := s.sessions[ss.id]; !live {
		s.smu.Unlock()
		return
	}
	delete(s.sessions, ss.id)
	s.smu.Unlock()

	a := ss.acct
	a.live.Add(-1)
	var used int64
	if ss.budget > 0 {
		left := ss.stepsLeft.Load()
		used = ss.budget - left
		if left < 0 {
			// The meter never over-debits (the VM rolls back the tripping
			// instruction), so a negative remainder is a quota violation.
			a.violations.Add(1)
		}
		for {
			max := a.maxSessionSteps.Load()
			if used <= max || a.maxSessionSteps.CompareAndSwap(max, used) {
				break
			}
		}
	}
	evicted := ss.evict.Load()
	if evicted {
		a.evicted.Add(1)
	} else {
		a.completed.Add(1)
	}
	if s.cfg.OnComplete != nil {
		reason, _ := ss.reason.Load().(string)
		s.cfg.OnComplete(Completion{
			Tenant:  a.id,
			Session: ss.id,
			Evicted: evicted,
			Reason:  reason,
			Latency: s.clock() - ss.start,
			Steps:   used,
		})
	}

	s.idleMu.Lock()
	s.totalLive--
	if s.totalLive == 0 {
		s.idleCond.Broadcast()
	}
	s.idleMu.Unlock()

	s.pump()
}

// Submit admits, queues, or rejects one submission. On success the
// returned ID identifies the session in completions and stats.
func (s *Server) Submit(sub Submission) (uint64, Status, error) {
	now := s.clock()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return 0, 0, s.rejected(nil, &Reject{RejectDraining, "server draining"})
	}
	a := s.accounts[sub.Tenant]
	if a == nil {
		s.mu.Unlock()
		return 0, 0, s.rejected(nil, &Reject{RejectUnknownTenant, fmt.Sprintf("unknown tenant %q", sub.Tenant)})
	}
	prog, rej := s.admitProgramLocked(a, sub)
	if rej != nil {
		s.mu.Unlock()
		return 0, 0, s.rejected(a, rej)
	}

	s.nextSession++
	p := &pending{
		id:     s.nextSession,
		prog:   prog,
		node:   sub.Node,
		daemon: sub.Daemon,
		vars:   sub.Vars,
		enq:    now,
	}
	if p.node == "" {
		p.node = s.cfg.DefaultNode
	}

	// Admit immediately only from an empty queue (otherwise the newcomer
	// would jump ahead of queued work).
	a.mu.Lock()
	canNow := len(a.queue) == 0 && s.admitNowLocked(a, now)
	if !canNow {
		if len(a.queue) >= a.q.MaxQueue {
			a.mu.Unlock()
			s.mu.Unlock()
			return 0, 0, s.rejected(a, &Reject{RejectBackpressure,
				fmt.Sprintf("tenant %q admission queue full (%d)", a.id, a.q.MaxQueue)})
		}
		a.queue = append(a.queue, p)
		s.queueDepth++
		a.mu.Unlock()
		s.armPumpLocked(now)
		s.mu.Unlock()
		s.som.queued.Inc()
		return p.id, StatusQueued, nil
	}
	a.mu.Unlock()
	err := s.launchLocked(a, p, now)
	s.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	return p.id, StatusAdmitted, nil
}

// admitProgramLocked verifies the submitted program, caching per
// (tenant, name, content). Bytecode submissions go through the bytecode
// verifier in Decode; source goes through the compiler (which verifies
// its output). Caller holds s.mu.
func (s *Server) admitProgramLocked(a *account, sub Submission) (*bytecode.Program, *Reject) {
	var content string
	if len(sub.Bytecode) > 0 {
		content = string(sub.Bytecode)
	} else {
		content = sub.Source
	}
	if content == "" {
		return nil, &Reject{RejectVerify, "empty program"}
	}
	if mp := a.q.MaxProgram; mp > 0 && len(content) > mp {
		return nil, &Reject{RejectTooLarge, fmt.Sprintf("program %dB exceeds tenant cap %dB", len(content), mp)}
	}
	key := progKey{a.id, sub.Name, content}
	p, cached := s.progCache[key]
	if !cached {
		var err error
		if len(sub.Bytecode) > 0 {
			p, err = bytecode.Decode(sub.Bytecode)
		} else {
			p, err = compile.Compile(a.id+"/"+sub.Name, sub.Source)
		}
		if err != nil {
			// The kind-flow verifier proved the program faults on every
			// execution: a distinct refusal from parse/verify errors so the
			// tenant (and the stats) can tell a type proof from a typo.
			if errors.Is(err, bytecode.ErrIllTyped) {
				return nil, &Reject{RejectIllTyped, err.Error()}
			}
			return nil, &Reject{RejectVerify, err.Error()}
		}
		s.sys.Register(p)
		s.progCache[key] = p
	}
	// The bound depends on the submitted variables, so cached programs are
	// re-checked per submission.
	if rej := stateBoundReject(a, p, sub.Vars); rej != nil {
		return nil, rej
	}
	return p, nil
}

// stateBoundReject pre-checks the verifier's static state-size bound
// against the tenant's memory cap. When every value the program can hold
// at a nav pause is a proven scalar, the worst-case snapshot size is
// base + the submitted values that ride along — if that already exceeds
// MemBudget the session's first hop is guaranteed to evict it, so it is
// refused before a single VM step runs. Programs without a derivable
// bound (aggregates, calls, out-of-line natives) fall through to the
// dynamic CheckMem at nav boundaries.
func stateBoundReject(a *account, p *bytecode.Program, vars map[string]value.Value) *Reject {
	mb := a.q.MemBudget
	if mb <= 0 {
		return nil
	}
	base, inherited, ok := p.StateBound()
	if !ok {
		return nil
	}
	bound := base
	for _, name := range inherited {
		// Absent names read as the zero (nil) Value, matching injection.
		bound += int64(vars[name].WireSize())
	}
	tracked := make(map[string]bool, len(inherited))
	for _, name := range inherited {
		tracked[name] = true
	}
	for name, v := range vars {
		if !tracked[name] {
			// Unreferenced injected variables ride along in the env
			// untouched; base has no entry for them.
			bound += int64(4 + len(name) + v.WireSize())
		}
	}
	if bound > int64(mb) {
		return &Reject{RejectStateBound, fmt.Sprintf(
			"proven state bound %dB exceeds tenant memory cap %dB", bound, mb)}
	}
	return nil
}

// admitNowLocked checks the live cap and debits the admission bucket.
// Caller holds a.mu (and s.mu).
func (s *Server) admitNowLocked(a *account, now sim.Time) bool {
	if a.q.MaxLive > 0 && a.live.Load() >= int64(a.q.MaxLive) {
		return false
	}
	return a.injTB.take(now, 1)
}

// launchLocked registers the session and injects its root Messenger.
// Caller holds s.mu.
func (s *Server) launchLocked(a *account, p *pending, now sim.Time) error {
	ss := &session{
		acct:   a,
		id:     p.id,
		budget: a.q.StepBudget,
		start:  p.enq,
	}
	ss.stepsLeft.Store(a.q.StepBudget)
	s.smu.Lock()
	s.sessions[p.id] = ss
	s.smu.Unlock()

	s.idleMu.Lock()
	s.totalLive++
	s.idleMu.Unlock()

	d := p.daemon
	if d < 0 || d >= s.sys.NumDaemons() {
		d = s.rrDaemon % s.sys.NumDaemons()
		s.rrDaemon++
	}
	if err := s.sys.InjectSession(d, p.prog, p.node, p.vars, a.id, p.id); err != nil {
		// Injection failed before any Messenger existed: unwind.
		s.smu.Lock()
		delete(s.sessions, p.id)
		s.smu.Unlock()
		s.idleMu.Lock()
		s.totalLive--
		if s.totalLive == 0 {
			s.idleCond.Broadcast()
		}
		s.idleMu.Unlock()
		return err
	}
	a.live.Add(1)
	a.admitted.Add(1)
	return nil
}

// pump runs fair-share admission over the queued tenants: repeated
// round-robin passes, one session per tenant per pass, until no tenant
// can admit. The starting offset rotates so persistent contention shares
// tokens fairly.
func (s *Server) pump() {
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queueDepth > 0 && !s.draining {
		for progress := true; progress; {
			progress = false
			n := len(s.order)
			for i := 0; i < n; i++ {
				a := s.accounts[s.order[(s.rr+i)%n]]
				a.mu.Lock()
				if len(a.queue) == 0 || !s.admitNowLocked(a, now) {
					a.mu.Unlock()
					continue
				}
				p := a.queue[0]
				a.queue = a.queue[1:]
				s.queueDepth--
				a.mu.Unlock()
				// Launch errors surface via stats only; the session was
				// never created on failure.
				_ = s.launchLocked(a, p, now)
				progress = true
			}
			s.rr++
		}
	}
	s.armPumpLocked(now)
}

// armPumpLocked schedules one pump wake-up at the earliest instant a
// queued tenant's admission bucket refills. One-shot (never recurring),
// so a drained system schedules nothing and the sim kernel can finish.
// Caller holds s.mu.
func (s *Server) armPumpLocked(now sim.Time) {
	if s.pumpArmed || s.draining || s.queueDepth == 0 {
		return
	}
	var delay sim.Time = -1
	for _, id := range s.order {
		a := s.accounts[id]
		a.mu.Lock()
		if len(a.queue) > 0 {
			// Blocked purely on MaxLive ⇒ a completion will pump; only
			// token refill needs a timer.
			if w := a.injTB.wait(now, 1); w > 0 && (delay < 0 || w < delay) {
				delay = w
			}
		}
		a.mu.Unlock()
	}
	if delay < 0 {
		return
	}
	if delay < sim.Millisecond {
		delay = sim.Millisecond
	}
	s.pumpArmed = true
	s.after(delay, func() {
		s.mu.Lock()
		s.pumpArmed = false
		s.mu.Unlock()
		s.pump()
	})
}

// rejected counts a rejection and returns it as the error.
func (s *Server) rejected(a *account, r *Reject) error {
	if a != nil {
		a.rejected.Add(1)
		if r.Code == RejectIllTyped {
			a.illTyped.Add(1)
		}
	}
	switch r.Code {
	case RejectUnknownTenant:
		s.som.rejTenant.Inc()
	case RejectVerify:
		s.som.rejVerify.Inc()
	case RejectTooLarge:
		s.som.rejTooLarge.Inc()
	case RejectBackpressure:
		s.som.rejBackpressure.Inc()
	case RejectDraining:
		s.som.rejDraining.Inc()
	case RejectIllTyped:
		s.som.rejIllTyped.Inc()
	case RejectStateBound:
		s.som.rejStateBound.Inc()
	}
	return r
}

// Drain stops admitting: in-flight sessions run to completion, queued
// submissions are flushed as draining rejections, new submissions are
// refused. Follow with WaitIdle for a graceful stop.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	for _, id := range s.order {
		a := s.accounts[id]
		a.mu.Lock()
		flushed := len(a.queue)
		a.queue = nil
		a.mu.Unlock()
		a.rejected.Add(int64(flushed))
		s.som.rejDraining.Add(int64(flushed))
		s.queueDepth -= flushed
	}
	s.mu.Unlock()
}

// WaitIdle blocks until no session is live. With Drain it implements
// graceful shutdown; without, a quiescence barrier between waves.
func (s *Server) WaitIdle() {
	s.idleMu.Lock()
	for s.totalLive > 0 {
		s.idleCond.Wait()
	}
	s.idleMu.Unlock()
}

// TenantStats is a point-in-time snapshot of one account.
type TenantStats struct {
	ID       string `json:"id"`
	Admitted int64  `json:"admitted"`
	Rejected int64  `json:"rejected"`
	// IllTyped counts rejections where the kind-flow verifier proved the
	// submitted program faults (a subset of Rejected).
	IllTyped  int64 `json:"ill_typed"`
	Evicted   int64 `json:"evicted"`
	Completed int64 `json:"completed"`
	Steps     int64 `json:"steps"`
	Hops      int64 `json:"hops"`
	// MaxSessionSteps is the largest metered step count any single session
	// of this tenant consumed — the quota-violation witness: it must never
	// exceed the tenant's StepBudget.
	MaxSessionSteps int64 `json:"max_session_steps"`
	// Violations counts sessions whose metered usage exceeded their budget
	// (always zero unless the meter is broken).
	Violations int64 `json:"violations"`
	Queue      int   `json:"queue"`
	Live       int64 `json:"live"`
}

// Stats snapshots all accounts in registration order.
func (s *Server) Stats() []TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStats, 0, len(s.order))
	for _, id := range s.order {
		a := s.accounts[id]
		a.mu.Lock()
		q := len(a.queue)
		a.mu.Unlock()
		out = append(out, TenantStats{
			ID:              a.id,
			Admitted:        a.admitted.Load(),
			Rejected:        a.rejected.Load(),
			IllTyped:        a.illTyped.Load(),
			Evicted:         a.evicted.Load(),
			Completed:       a.completed.Load(),
			Steps:           a.steps.Load(),
			Hops:            a.hops.Load(),
			MaxSessionSteps: a.maxSessionSteps.Load(),
			Violations:      a.violations.Load(),
			Queue:           q,
			Live:            a.live.Load(),
		})
	}
	return out
}

// Violations sums quota violations across tenants (zero on a correct
// server; TestQuotasHoldAtScale asserts this).
func (s *Server) Violations() int64 {
	var n int64
	for _, ts := range s.Stats() {
		n += ts.Violations
	}
	return n
}

// LiveSessions returns the number of currently live sessions.
func (s *Server) LiveSessions() int {
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	return s.totalLive
}
