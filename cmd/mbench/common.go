package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"messengers"
	"messengers/internal/core"
	"messengers/internal/obs"
)

// daemons is the size of every real-engine system. The sandbox has about
// one effective core (two spinning goroutines take 1.83x the wall time of
// one), so more daemons would measure the Go scheduler.
const daemons = 2

// setupReps is how many times an untraced run sets up, so that setup_s is a
// median.
const setupReps = 5

// ringSpec lays one logical node per daemon, r0..r{n-1}, closed into a
// directed ring of "ring" links.
func ringSpec(n int) messengers.NetSpec {
	spec := messengers.NetSpec{}
	for i := 0; i < n; i++ {
		spec.Nodes = append(spec.Nodes, messengers.NetNode{Name: fmt.Sprintf("r%d", i), Daemon: i})
	}
	for i := 0; i < n; i++ {
		spec.Links = append(spec.Links, messengers.NetLink{
			A: fmt.Sprintf("r%d", i), B: fmt.Sprintf("r%d", (i+1)%n), Name: "ring", Dir: 1,
		})
	}
	return spec
}

// settle returns once every daemon has run everything queued before the
// call. Register only enqueues the registration on each daemon, and a
// Messenger arriving from a peer can overtake it (ROADMAP open item 4), so
// set-up waits here before the first inject.
func settle(sys *messengers.System) {
	var wg sync.WaitGroup
	for d := 0; d < sys.NumDaemons(); d++ {
		wg.Add(1)
		sys.Do(d, func(*core.Daemon) { wg.Done() })
	}
	wg.Wait()
}

// newRing builds a 2-daemon system over TCP loopback (or in process, for
// the compute workloads and the in-process hop probe) with the ring laid
// down and the given scripts registered everywhere.
func newRing(tcp bool, met *obs.Metrics, tr *obs.Tracer, scripts map[string]string) (*messengers.System, error) {
	cfg := messengers.Config{Daemons: daemons, Metrics: met, Trace: tr}
	var sys *messengers.System
	var err error
	if tcp {
		sys, err = messengers.NewTCPSystem(cfg, nil)
	} else {
		sys, err = messengers.NewRealSystem(cfg)
	}
	if err != nil {
		return nil, err
	}
	if err := sys.BuildNetwork(ringSpec(daemons)); err != nil {
		sys.Close()
		return nil, err
	}
	for name, src := range scripts {
		if err := sys.CompileAndRegister(name, src); err != nil {
			sys.Close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	settle(sys)
	return sys, nil
}

// nodeSum adds up one numeric node variable over the ring's nodes.
func nodeSum(sys *messengers.System, name string) float64 {
	var sum float64
	for d := 0; d < sys.NumDaemons(); d++ {
		if vars, ok := sys.ReadNodeVars(d, fmt.Sprintf("r%d", d)); ok {
			sum += vars[name].AsNum()
		}
	}
	return sum
}

// repeatSetup sets up n times, closing all but the last system, and
// returns the last one with every set-up's duration in seconds.
func repeatSetup[T interface{ close() }](n int, build func() (T, error)) (T, []float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			last.close()
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return last, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = s
	}
	return last, secs, nil
}

// memDelta reports heap allocations between two points of a run.
type memDelta struct{ before runtime.MemStats }

func memStart() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) stop() (mallocs, bytes float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - m.before.Mallocs), float64(after.TotalAlloc - m.before.TotalAlloc)
}
