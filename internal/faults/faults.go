// Package faults provides deterministic, seedable fault injection for both
// engines: a Plan describes message-level faults (drop, duplicate, corrupt,
// latency spikes), network partitions, and daemon crashes/restarts; an
// Injector turns the plan into per-message verdicts using a splitmix64
// stream, so the same seed and plan always inject the same faults at the
// same points of a deterministic run.
//
// Both engines take a Hook (lan.Cluster.SetFaultHook and
// transport.TCPEngine.SetFaultHook), and Injector.Decide is one; crashes
// and restarts are armed by Schedule against either engine's clock.
// Every injected fault is counted (faults.injected.*) and traced so chaos
// runs stay diagnosable.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"messengers/internal/obs"
	"messengers/internal/sim"
)

// Crash schedules one daemon death. Times are nanoseconds from run start —
// simulated time on the simulated engine, wall time on real engines.
type Crash struct {
	Daemon int   `json:"daemon"`
	At     int64 `json:"at"`
	// RestartAfter, when positive, revives the daemon that long after the
	// crash (a fresh, empty daemon: the logical nodes and Messengers it
	// hosted are gone).
	RestartAfter int64 `json:"restart_after,omitempty"`
}

// Partition isolates Group from all other daemons during [At, Heal):
// messages crossing the cut are dropped. Heal of zero never heals.
type Partition struct {
	At    int64 `json:"at"`
	Heal  int64 `json:"heal,omitempty"`
	Group []int `json:"group"`
	// OneWay makes the cut asymmetric: only messages *from* the group to
	// the rest of the network are dropped; traffic into the group still
	// flows. This models a host whose transmit path is broken (or a
	// firewall misconfiguration) rather than a clean network split.
	OneWay bool `json:"one_way,omitempty"`
}

// Storm is a windowed probability override: during [At, Until) the plan's
// base drop/dup/delay probabilities are replaced by the storm's. Storms
// model transient congestion — a burst of loss and latency — without
// changing the decision stream's shape (the injector still consumes exactly
// four draws per message, so runs with and without a storm stay aligned
// up to the verdicts themselves).
type Storm struct {
	At        int64   `json:"at"`
	Until     int64   `json:"until"`
	Drop      float64 `json:"drop,omitempty"`
	Dup       float64 `json:"dup,omitempty"`
	DelayProb float64 `json:"delay_prob,omitempty"`
	Delay     int64   `json:"delay,omitempty"`
}

// Plan is one deterministic fault scenario. Probabilities are per message;
// durations are nanoseconds.
type Plan struct {
	// Seed drives the fault decision stream. The same seed and plan on the
	// same deterministic run inject byte-identically.
	Seed uint64 `json:"seed"`
	// Drop is the probability a message is silently lost.
	Drop float64 `json:"drop,omitempty"`
	// Dup is the probability a message is delivered twice.
	Dup float64 `json:"dup,omitempty"`
	// Corrupt is the probability a message is damaged in transit. On the
	// modeled bus this is a CRC-rejected frame (occupies the wire, never
	// delivered); on TCP the connection is torn down as a receiver would on
	// a bad frame.
	Corrupt float64 `json:"corrupt,omitempty"`
	// DelayProb is the probability a message suffers an extra latency spike
	// of Delay nanoseconds.
	DelayProb float64 `json:"delay_prob,omitempty"`
	Delay     int64   `json:"delay,omitempty"`
	// DetectDelay is the failure-detection lag: how long after a crash (or
	// restart) the surviving daemons are notified when Schedule arms
	// explicit notices. Zero means a default of 10ms.
	DetectDelay int64       `json:"detect_delay,omitempty"`
	Crashes     []Crash     `json:"crashes,omitempty"`
	Partitions  []Partition `json:"partitions,omitempty"`
	Storms      []Storm     `json:"storms,omitempty"`
}

// DefaultDetectDelay is the failure-detection lag used when the plan leaves
// DetectDelay zero.
const DefaultDetectDelay = int64(10 * sim.Millisecond)

func (p *Plan) detectDelay() int64 {
	if p.DetectDelay > 0 {
		return p.DetectDelay
	}
	return DefaultDetectDelay
}

// Validate checks probabilities and crash targets against a daemon count.
func (p *Plan) Validate(daemons int) error {
	if err := p.check(); err != nil {
		return err
	}
	for _, c := range p.Crashes {
		if c.Daemon < 0 || c.Daemon >= daemons {
			return fmt.Errorf("faults: crash of unknown daemon %d (have %d)", c.Daemon, daemons)
		}
	}
	for _, pt := range p.Partitions {
		for _, d := range pt.Group {
			if d < 0 || d >= daemons {
				return fmt.Errorf("faults: partition references unknown daemon %d", d)
			}
		}
	}
	return nil
}

// check performs the daemon-count-independent structural validation shared
// by Validate and Load: probability ranges, negative durations, inverted or
// overlapping windows. Errors name the offending field and entry so a bad
// hand-written plan fails at load time with a pointer to the line, not
// twenty seconds into a chaos run.
func (p *Plan) check() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"dup", p.Dup}, {"corrupt", p.Corrupt}, {"delay_prob", p.DelayProb}} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.Delay < 0 {
		return fmt.Errorf("faults: negative delay %d", p.Delay)
	}
	if p.DetectDelay < 0 {
		return fmt.Errorf("faults: negative detect_delay %d", p.DetectDelay)
	}
	if p.DelayProb > 0 && p.Delay <= 0 {
		return fmt.Errorf("faults: delay_prob %v with no delay duration", p.DelayProb)
	}
	for i, c := range p.Crashes {
		if c.At < 0 {
			return fmt.Errorf("faults: crashes[%d]: negative at %d", i, c.At)
		}
		if c.RestartAfter < 0 {
			return fmt.Errorf("faults: crashes[%d]: negative restart_after %d", i, c.RestartAfter)
		}
	}
	// Two windows for the same daemon must not overlap: a crash landing
	// inside another crash's dead window would kill an already-dead daemon
	// (or race its restart), which is never what the plan author meant.
	for i, a := range p.Crashes {
		for j, b := range p.Crashes {
			if j <= i || a.Daemon != b.Daemon {
				continue
			}
			aEnd, bEnd := crashEnd(a), crashEnd(b)
			if a.At < bEnd && b.At < aEnd {
				return fmt.Errorf("faults: crashes[%d] and crashes[%d]: overlapping windows for daemon %d ([%d,%d) vs [%d,%d))",
					i, j, a.Daemon, a.At, aEnd, b.At, bEnd)
			}
		}
	}
	for i, pt := range p.Partitions {
		if len(pt.Group) == 0 {
			return fmt.Errorf("faults: partitions[%d]: empty group", i)
		}
		if pt.At < 0 {
			return fmt.Errorf("faults: partitions[%d]: negative at %d", i, pt.At)
		}
		if pt.Heal < 0 {
			return fmt.Errorf("faults: partitions[%d]: negative heal %d", i, pt.Heal)
		}
		if pt.Heal > 0 && pt.Heal <= pt.At {
			return fmt.Errorf("faults: partitions[%d]: heal %d not after at %d", i, pt.Heal, pt.At)
		}
	}
	for i, s := range p.Storms {
		if s.At < 0 {
			return fmt.Errorf("faults: storms[%d]: negative at %d", i, s.At)
		}
		if s.Until <= s.At {
			return fmt.Errorf("faults: storms[%d]: until %d not after at %d", i, s.Until, s.At)
		}
		for _, pr := range []struct {
			name string
			v    float64
		}{{"drop", s.Drop}, {"dup", s.Dup}, {"delay_prob", s.DelayProb}} {
			if pr.v < 0 || pr.v > 1 {
				return fmt.Errorf("faults: storms[%d]: %s probability %v outside [0,1]", i, pr.name, pr.v)
			}
		}
		if s.Delay < 0 {
			return fmt.Errorf("faults: storms[%d]: negative delay %d", i, s.Delay)
		}
		if s.DelayProb > 0 && s.Delay <= 0 {
			return fmt.Errorf("faults: storms[%d]: delay_prob %v with no delay duration", i, s.DelayProb)
		}
	}
	return nil
}

// crashEnd is the exclusive end of a crash's dead window. A crash with no
// restart holds the daemon down forever.
func crashEnd(c Crash) int64 {
	if c.RestartAfter <= 0 {
		return int64(1)<<62 - 1
	}
	return c.At + c.RestartAfter
}

// Load reads a JSON-encoded Plan from path (the cmd/mchaos -plan format;
// see docs/FAULTS.md). Unknown fields are rejected — a typoed key like
// "paritions" silently disables the fault it meant to inject, which is the
// worst possible failure mode for a chaos plan — and the structural checks
// that don't need a daemon count run immediately, so errors carry the field
// name and entry index.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	p := &Plan{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("faults: parse %s: %w", path, err)
	}
	if err := p.check(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Verdict is the decision for one message. Both engines act on it: Drop
// loses the message (on the modeled bus it still occupies the wire);
// Corrupt damages it, which the modeled bus treats as a CRC-rejected frame
// (transmitted, not delivered) and the TCP engine as a stream the receiver
// resets (the connection is torn down); Dup delivers it twice.
type Verdict struct {
	Drop    bool
	Dup     bool
	Corrupt bool
	// Delay is extra latency in nanoseconds (0 = none).
	Delay int64
}

// Hook decides the fate of one message from src to dst of the given wire
// size at engine time now (nanoseconds from run start). Engines consult it
// per remote transfer; Injector.Decide is the seeded implementation.
type Hook func(now int64, src, dst, size int) Verdict

// Injector turns a Plan into per-message verdicts. It is safe for
// concurrent use (the TCP engine consults it from many goroutines); on the
// single-threaded simulated engine, calls happen in deterministic event
// order, so the decision stream is reproducible.
type Injector struct {
	plan *Plan
	tr   *obs.Tracer

	mu    sync.Mutex
	state uint64

	drops, dups, corrupts, delays, partitioned *obs.Counter
}

// NewInjector builds an injector for the plan. Either observability
// argument may be nil.
func NewInjector(p *Plan, m *obs.Metrics, tr *obs.Tracer) *Injector {
	return &Injector{
		plan:        p,
		tr:          tr,
		state:       p.Seed,
		drops:       m.Counter("faults.injected.drop"),
		dups:        m.Counter("faults.injected.dup"),
		corrupts:    m.Counter("faults.injected.corrupt"),
		delays:      m.Counter("faults.injected.delay"),
		partitioned: m.Counter("faults.injected.partition"),
	}
}

// rand returns the next [0,1) draw of the splitmix64 stream. Callers hold
// in.mu.
func (in *Injector) rand() float64 {
	in.state += 0x9e3779b97f4a7c15
	z := in.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

func inGroup(group []int, d int) bool {
	for _, g := range group {
		if g == d {
			return true
		}
	}
	return false
}

// Decide returns the verdict for one message from src to dst of the given
// wire size at time now (nanoseconds from run start). Partition checks
// consume no randomness; the probabilistic faults always consume exactly
// four draws, so the decision stream depends only on the message sequence.
func (in *Injector) Decide(now int64, src, dst, size int) Verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, pt := range in.plan.Partitions {
		if now < pt.At || (pt.Heal > 0 && now >= pt.Heal) {
			continue
		}
		cut := inGroup(pt.Group, src) != inGroup(pt.Group, dst)
		if cut && pt.OneWay {
			// Asymmetric cut: only the group's outbound traffic is lost.
			cut = inGroup(pt.Group, src)
		}
		if cut {
			in.partitioned.Inc()
			if in.tr != nil {
				in.tr.Instant(src, "fault", "fault.partition",
					obs.I("to", int64(dst)), obs.I("bytes", int64(size)))
			}
			return Verdict{Drop: true}
		}
	}
	// Storms override the base probabilities inside their window but keep
	// the four-draws-per-message shape, so the stream alignment invariant
	// below holds with or without active storms.
	drop, dup, delayProb, delay := in.plan.Drop, in.plan.Dup, in.plan.DelayProb, in.plan.Delay
	for _, s := range in.plan.Storms {
		if now >= s.At && now < s.Until {
			drop, dup, delayProb, delay = s.Drop, s.Dup, s.DelayProb, s.Delay
			break
		}
	}
	v := Verdict{
		Drop:    in.rand() < drop,
		Corrupt: in.rand() < in.plan.Corrupt,
		Dup:     in.rand() < dup,
	}
	if in.rand() < delayProb {
		v.Delay = delay
	}
	switch {
	case v.Drop:
		v.Corrupt, v.Dup, v.Delay = false, false, 0
		in.drops.Inc()
		if in.tr != nil {
			in.tr.Instant(src, "fault", "fault.drop", obs.I("to", int64(dst)), obs.I("bytes", int64(size)))
		}
	case v.Corrupt:
		v.Dup, v.Delay = false, 0
		in.corrupts.Inc()
		if in.tr != nil {
			in.tr.Instant(src, "fault", "fault.corrupt", obs.I("to", int64(dst)), obs.I("bytes", int64(size)))
		}
	default:
		if v.Dup {
			in.dups.Inc()
			if in.tr != nil {
				in.tr.Instant(src, "fault", "fault.dup", obs.I("to", int64(dst)))
			}
		}
		if v.Delay > 0 {
			in.delays.Inc()
			if in.tr != nil {
				in.tr.Instant(src, "fault", "fault.delay", obs.I("to", int64(dst)), obs.I("ns", v.Delay))
			}
		}
	}
	return v
}
