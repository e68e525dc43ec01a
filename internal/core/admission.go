package core

// Multi-tenant admission hooks. The core stays policy-free: it tags every
// Messenger with the tenant/session it is charged to, consults a pluggable
// Gate at the points where resources are spent, and reports session
// liveness transitions back to the gate. The policy — accounts, budgets,
// token buckets, backpressure — lives in internal/serve, which implements
// Gate without core importing it.

import (
	"fmt"

	"messengers/internal/bytecode"
	"messengers/internal/sim"
	"messengers/internal/value"
	"messengers/internal/vm"
)

// Gate is an admission layer's view into the running system. All methods
// are invoked from daemon executors, concurrently across daemons, so
// implementations must be safe for concurrent use.
type Gate interface {
	// Session resolves the quota gate for one admitted session wherever a
	// Messenger of that session materializes (injection, arrival, recovery
	// respawn). Unknown sessions — e.g. an at-least-once respawn of a
	// session that already completed — must return a gate that denies
	// execution, never nil.
	Session(tenant string, session uint64) SessionGate
	// SessionWork mirrors the system's liveness accounting per session:
	// delta is +n when Messengers/transfers of the session come into
	// existence (injection, replication, transfer slots) and -n when they
	// end. The session is complete when its count reaches zero.
	SessionWork(tenant string, session uint64, delta int)
}

// SessionGate enforces one session's quotas. Allowance/Charge (the
// vm.StepMeter half) meter instruction steps; ChargeHop and CheckMem are
// consulted at nav boundaries (hop/create), the paper's natural
// interruption points, before the Messenger replicates.
type SessionGate interface {
	vm.StepMeter
	// ChargeHop debits n hops at engine time now (virtual on sim, wall on
	// real transports); an error evicts the Messenger.
	ChargeHop(now sim.Time, n int) error
	// CheckMem vets the Messenger's serialized state size against the
	// tenant's value-memory cap; an error evicts the Messenger.
	CheckMem(bytes int) error
	// Evicted notifies the gate that a Messenger of the session was
	// destroyed for exceeding a quota (the step meter trips inside the VM,
	// where the gate cannot observe it directly).
	Evicted(err error)
}

// SetAdmission attaches the admission gate. It must be set before any
// tenant-tagged Messenger is injected and never changed mid-run (daemon
// executors read it without synchronization).
func (s *System) SetAdmission(g Gate) { s.gate = g }

// sessionWork is the single choke point for Messenger liveness deltas: it
// keeps the global count (quiescence detection) and mirrors the delta to
// the admission gate for per-session completion tracking. Untenanted
// Messengers only touch the global count.
func (s *System) sessionWork(tenant string, session uint64, delta int) {
	if delta == 0 {
		return
	}
	if delta > 0 {
		s.workAdded(delta)
	} else {
		s.workDone(-delta)
	}
	if s.gate != nil && tenant != "" {
		s.gate.SessionWork(tenant, session, delta)
	}
}

// resolveGate looks up the session gate for a materializing Messenger
// (nil for untenanted Messengers or when no gate is attached).
func (d *Daemon) resolveGate(tenant string, session uint64) SessionGate {
	if d.sys.gate == nil || tenant == "" {
		return nil
	}
	return d.sys.gate.Session(tenant, session)
}

// chargeNav vets a Messenger about to replicate n ways. Nav boundaries are
// where quota enforcement bites: the Messenger is about to occupy the
// network, so its serialized size is checked against the tenant's memory
// cap and one hop per replica is charged against the hop-rate bucket before
// anything replicates. A Messenger over either is evicted, and chargeNav
// reports false.
func (d *Daemon) chargeNav(m *Messenger, n int) bool {
	if m.gate == nil {
		return true
	}
	err := m.gate.CheckMem(m.VM.SnapshotSize())
	if err == nil {
		err = m.gate.ChargeHop(d.eng.Now(), n)
	}
	if err != nil {
		d.end(m.ID, m.Tenant, m.Session, m.gate, endEvict, err)
		return false
	}
	return true
}

// InjectSession injects a tenant-tagged Messenger of a verified program
// into daemon d. The program must already be registered (Register) so
// remote daemons can restore hops. The admission layer is responsible for
// having counted the session with its gate before this call returns work
// to it.
func (s *System) InjectSession(d int, prog *bytecode.Program, node string,
	vars map[string]value.Value, tenant string, session uint64) error {
	if tenant == "" {
		return fmt.Errorf("core: InjectSession requires a tenant")
	}
	return s.injectProg(d, prog, node, vars, 0, tenant, session)
}
