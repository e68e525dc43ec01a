// Package obs is the unified tracing and metrics subsystem shared by the
// simulated and real MESSENGERS engines.
//
// The paper's whole evaluation is about *where time goes* — copy costs,
// daemon indirection, bus contention, manager serialization — and this
// package makes that breakdown observable on any run. It has two halves:
//
//   - a Tracer collecting structured span/instant events (messenger
//     lifecycle, VM segments and native calls, GVT epoch advances, LAN
//     frame transmissions, PVM pack/send/recv/unpack), each stamped with a
//     track (one per daemon/host, plus one for the shared bus) and a
//     timestamp drawn from a pluggable clock — the simulation kernel in
//     simulated runs, the wall clock in real ones;
//   - a Metrics registry of named counters, gauges, and histograms that
//     replaces the ad-hoc counter fields previously threaded through app
//     result structs.
//
// Both are nil-safe: every method on a nil *Tracer, *Metrics, *Counter,
// *Gauge, or *Histogram is a no-op, so instrumented code needs no
// configuration flags — an untraced run carries only an untaken branch.
// Exporters (Chrome trace_event JSON, CSV, aligned text) live in export.go.
//
// The package is dependency-free (standard library only) so every layer of
// the runtime — core, lan, pvm, gvt, vm, transport — can import it without
// cycles.
package obs

import (
	"sync"
	"time"
)

// Well-known track offsets: daemon/host i traces on track i; auxiliary
// tracks (the shared bus, the system itself) sit above all hosts.
const (
	// BusTrackName names the shared-Ethernet track.
	BusTrackName = "ethernet bus"
)

// Field is one key/value argument attached to an event. Exactly one of the
// value slots is meaningful, selected by the constructor used.
type Field struct {
	Key  string
	kind uint8
	i    int64
	f    float64
	s    string
}

const (
	fieldInt uint8 = iota
	fieldFloat
	fieldStr
)

// I builds an integer field.
func I(key string, v int64) Field { return Field{Key: key, kind: fieldInt, i: v} }

// F builds a floating-point field.
func F(key string, v float64) Field { return Field{Key: key, kind: fieldFloat, f: v} }

// S builds a string field.
func S(key, v string) Field { return Field{Key: key, kind: fieldStr, s: v} }

// Int returns the integer slot (0 unless built with I).
func (f Field) Int() int64 { return f.i }

// Event phases, mirroring the Chrome trace_event "ph" values the exporter
// emits.
const (
	PhaseSpan    byte = 'X' // complete event: TS..TS+Dur
	PhaseInstant byte = 'i' // instantaneous event
)

// Event is one recorded trace event.
type Event struct {
	// TS is the event timestamp in engine nanoseconds (simulated time on
	// the simulated engine, monotonic wall time on real engines).
	TS int64
	// Dur is the span duration in nanoseconds (PhaseSpan only).
	Dur int64
	// Track is the horizontal lane the event belongs to: daemon/host ID,
	// or an auxiliary track registered with NameTrack.
	Track int
	// Ph is the phase (PhaseSpan or PhaseInstant).
	Ph byte
	// Cat is the event category ("msgr", "vm", "gvt", "lan", "pvm", "net").
	Cat string
	// Name is the event name within the category.
	Name string
	// Args are optional structured arguments.
	Args []Field
}

// Tracer collects events from one run. A nil *Tracer is a valid no-op
// tracer; instrumented code may also guard emission sites with `!= nil` to
// keep the disabled path to a single branch.
//
// The zero clock is monotonic wall time since construction; simulated
// engines install the kernel clock with SetClock so events carry simulated
// timestamps and two identical runs produce byte-identical streams.
type Tracer struct {
	mu        sync.Mutex
	clock     func() int64
	wallStart time.Time
	events    []Event
	tracks    map[int]string
}

// NewTracer returns an empty tracer on the wall clock.
func NewTracer() *Tracer {
	return &Tracer{wallStart: time.Now(), tracks: map[int]string{}}
}

// SetClock installs a timestamp source (nanoseconds). The simulated engine
// points this at its kernel so events carry simulated time.
func (t *Tracer) SetClock(fn func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = fn
	t.mu.Unlock()
}

// Now returns the tracer's current timestamp in nanoseconds (0 on a nil
// tracer).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	c := t.clock
	t.mu.Unlock()
	if c != nil {
		return c()
	}
	return int64(time.Since(t.wallStart))
}

// NameTrack labels a track (shown as the thread name in chrome://tracing).
func (t *Tracer) NameTrack(track int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tracks[track] = name
	t.mu.Unlock()
}

// Emit records a fully formed event.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Instant records an instantaneous event at the current clock.
func (t *Tracer) Instant(track int, cat, name string, args ...Field) {
	if t == nil {
		return
	}
	t.Emit(Event{TS: t.Now(), Track: track, Ph: PhaseInstant, Cat: cat, Name: name, Args: args})
}

// Span records a complete event covering [start, start+dur).
func (t *Tracer) Span(track int, cat, name string, start, dur int64, args ...Field) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.Emit(Event{TS: start, Dur: dur, Track: track, Ph: PhaseSpan, Cat: cat, Name: name, Args: args})
}

// Len returns the number of recorded events (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded event stream in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Tracks returns a copy of the registered track-name map.
func (t *Tracer) Tracks() map[int]string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]string, len(t.tracks))
	for k, v := range t.tracks {
		out[k] = v
	}
	return out
}
