package protocols

import (
	"fmt"
	"time"

	messengers "messengers"
	"messengers/internal/faults"
	"messengers/internal/obs"
	"messengers/internal/sim"
)

// Engine names accepted by the harness.
const (
	// EngineSim is the deterministic discrete-event cluster.
	EngineSim = "sim"
	// EngineReal is the real runtime: TCP sockets for the Messenger
	// implementations (the only real engine with a wire to fault),
	// goroutines for the PVM baselines.
	EngineReal = "real"
)

// protoGVTInterval paces GVT rounds well below the default 25ms so the
// Paxos/2PC drivers' sched_dlt round pacing stays fast on both engines.
const protoGVTInterval = sim.Millisecond

// realRunTimeout bounds a real-engine run. Every nemesis plan heals its
// partitions and restarts its crashes, so a quiescent run is always
// reachable; a hang here is a bug, not chaos.
const realRunTimeout = 90 * time.Second

// newMsgrSystem builds a Messenger system for one protocol run. Recovery is
// always on — at-least-once hop delivery is the runtime service the
// Messenger implementations lean on, mirroring the app-level reliability
// the PVM baselines must hand-roll.
func newMsgrSystem(engine string, daemons int, plan *faults.Plan, m *obs.Metrics) (*messengers.System, error) {
	cfg := messengers.Config{
		Daemons:     daemons,
		Metrics:     m,
		GVTInterval: protoGVTInterval,
		Faults:      plan,
		Recovery:    true,
	}
	switch engine {
	case EngineSim:
		return messengers.NewSimSystem(cfg)
	case EngineReal:
		return messengers.NewTCPSystem(cfg, nil)
	default:
		return nil, fmt.Errorf("protocols: unknown engine %q", engine)
	}
}

// runMsgrSystem drives the system to quiescence and surfaces unexpected
// errors. Crash-related errors (injection racing a scheduled kill, sends to
// a detected-dead peer) are chaos noise, not failures.
func runMsgrSystem(sys *messengers.System) error {
	if sys.Kernel() != nil {
		sys.RunSim()
		return msgrErrorsFatal(sys.Errors())
	}
	done := make(chan struct{})
	go func() {
		sys.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(realRunTimeout):
		return fmt.Errorf("protocols: real-engine run did not quiesce within %v", realRunTimeout)
	}
	return msgrErrorsFatal(sys.Errors())
}
