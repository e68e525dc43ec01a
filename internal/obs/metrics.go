package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. All methods are nil-safe and
// goroutine-safe, so instrumented code holds counters unconditionally and a
// disabled registry costs one predictable branch per update.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 level.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates an int64 distribution in power-of-two buckets
// (bucket i counts values whose bit length is i), tracking count, sum, min,
// and max exactly.
type Histogram struct {
	mu      sync.Mutex
	buckets [65]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// Observe records one sample (negative samples clamp to 0).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.buckets[bits.Len64(uint64(v))]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sample total.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max return the extreme samples (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) from the
// power-of-two buckets.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen >= target {
			if i == 0 {
				return 0
			}
			ub := int64(1)<<uint(i) - 1
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// MetricKind distinguishes registry entries in snapshots.
type MetricKind uint8

// Metric kinds.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// String names the kind.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "?"
}

// Sample is one registry entry in a Snapshot.
type Sample struct {
	Name  string
	Kind  MetricKind
	Value int64 // counter/gauge value; histogram sum
	// Histogram detail (KindHistogram only).
	Count    int64
	Min, Max int64
	Mean     float64
	P50, P99 int64
}

// Metrics is a named registry of counters, gauges, and histograms — the
// single source of truth for run statistics. An instrument is either held
// by the registry (Counter, Gauge, Histogram) or read from where its
// subsystem already keeps the count (CounterFunc, GaugeFunc). A nil
// *Metrics hands out nil instruments, whose updates are no-ops.
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	reads      []readFunc // registration only appends
}

// readFunc is one CounterFunc or GaugeFunc registration.
type readFunc struct {
	name string
	kind MetricKind
	f    func() int64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter; nil on a nil
// registry.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil on a nil
// registry.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram; nil on a nil
// registry.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.histograms[name]
	if !ok {
		h = &Histogram{}
		m.histograms[name] = h
	}
	return h
}

// CounterFunc registers f as a read of the named counter: the count is
// kept where the event happens, and Snapshot, CounterValue and the
// exporters call f to read it. A name registered more than once reads as
// the sum, so a registry shared by two systems reads their total. f runs
// outside the registry lock and must be safe to call from any goroutine.
func (m *Metrics) CounterFunc(name string, f func() int64) { m.register(name, KindCounter, f) }

// GaugeFunc registers f as a read of the named gauge, as CounterFunc does
// for a counter.
func (m *Metrics) GaugeFunc(name string, f func() int64) { m.register(name, KindGauge, f) }

func (m *Metrics) register(name string, kind MetricKind, f func() int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.reads = append(m.reads, readFunc{name, kind, f})
	m.mu.Unlock()
}

// Has reports whether name is registered under any kind.
func (m *Metrics) Has(name string) bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.counters[name] != nil || m.gauges[name] != nil || m.histograms[name] != nil {
		return true
	}
	for _, r := range m.reads {
		if r.name == name {
			return true
		}
	}
	return false
}

// CounterValue reads a counter without creating it (0 if absent or nil).
func (m *Metrics) CounterValue(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	c := m.counters[name]
	reads := m.reads
	m.mu.Unlock()
	v := c.Value()
	for _, r := range reads {
		if r.kind == KindCounter && r.name == name {
			v += r.f()
		}
	}
	return v
}

// Snapshot returns every registered instrument sorted by name (counters,
// then gauges, then histograms interleaved alphabetically), calling each
// read function once.
func (m *Metrics) Snapshot() []Sample {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	out := make([]Sample, 0, len(m.counters)+len(m.gauges)+len(m.histograms))
	for name, c := range m.counters {
		out = append(out, Sample{Name: name, Kind: KindCounter, Value: c.Value()})
	}
	for name, g := range m.gauges {
		out = append(out, Sample{Name: name, Kind: KindGauge, Value: g.Value()})
	}
	for name, h := range m.histograms {
		out = append(out, Sample{
			Name: name, Kind: KindHistogram,
			Value: h.Sum(), Count: h.Count(),
			Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
			P50: h.Quantile(0.5), P99: h.Quantile(0.99),
		})
	}
	reads := m.reads
	m.mu.Unlock()
	// Read functions run outside the lock: they take their subsystem's own.
	type key struct {
		name string
		kind MetricKind
	}
	at := make(map[key]int, len(out))
	for i, s := range out {
		at[key{s.Name, s.Kind}] = i
	}
	for _, r := range reads {
		v := r.f()
		k := key{r.name, r.kind}
		if i, ok := at[k]; ok {
			out[i].Value += v
			continue
		}
		at[k] = len(out)
		out = append(out, Sample{Name: r.name, Kind: r.kind, Value: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}
