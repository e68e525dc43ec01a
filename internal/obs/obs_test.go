package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety exercises every method on nil receivers: instrumented code
// must run unchanged when observability is disabled.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.SetClock(func() int64 { return 1 })
	tr.NameTrack(0, "x")
	tr.Emit(Event{})
	tr.Instant(0, "c", "n")
	tr.Span(0, "c", "n", 0, 1)
	if tr.Now() != 0 || tr.Len() != 0 || tr.Events() != nil || tr.Tracks() != nil {
		t.Error("nil tracer should observe nothing")
	}

	var m *Metrics
	if m.Counter("a") != nil || m.Gauge("b") != nil || m.Histogram("c") != nil {
		t.Error("nil registry should hand out nil instruments")
	}
	m.CounterFunc("a", func() int64 { return 1 })
	m.GaugeFunc("b", func() int64 { return 1 })
	if m.CounterValue("a") != 0 || m.Snapshot() != nil || m.Has("a") {
		t.Error("nil registry should read as empty")
	}
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter")
	}
	var g *Gauge
	g.Set(5)
	if g.Value() != 0 {
		t.Error("nil gauge")
	}
	var h *Histogram
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram")
	}
}

func TestTracerClockAndEvents(t *testing.T) {
	tr := NewTracer()
	var now int64
	tr.SetClock(func() int64 { return now })
	now = 1500
	tr.Instant(2, "msgr", "hop", I("msgr", 7), S("dest", "n3"))
	now = 2000
	tr.Span(1, "vm", "segment", 1800, 150, F("steps", 12))
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].TS != 1500 || evs[0].Track != 2 || evs[0].Ph != PhaseInstant {
		t.Errorf("instant event wrong: %+v", evs[0])
	}
	if evs[1].TS != 1800 || evs[1].Dur != 150 || evs[1].Ph != PhaseSpan {
		t.Errorf("span event wrong: %+v", evs[1])
	}
}

func TestMetricsRegistry(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("bus.msgs")
	c.Add(3)
	m.Counter("bus.msgs").Inc() // same instrument
	if got := m.CounterValue("bus.msgs"); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	m.Gauge("gvt").Set(42)
	h := m.Histogram("snapshot.bytes")
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1106 || h.Min() != 1 || h.Max() != 1000 {
		t.Errorf("histogram stats wrong: n=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if q := h.Quantile(0.5); q < 3 || q > 7 {
		t.Errorf("p50 = %d, want around 3", q)
	}
	if q := h.Quantile(1.0); q != 1000 {
		t.Errorf("p100 = %d, want 1000", q)
	}

	snap := m.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	// Sorted by name: bus.msgs, gvt, snapshot.bytes.
	if snap[0].Name != "bus.msgs" || snap[1].Name != "gvt" || snap[2].Name != "snapshot.bytes" {
		t.Errorf("snapshot order wrong: %v %v %v", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	if snap[2].Kind != KindHistogram || snap[2].Count != 5 {
		t.Errorf("histogram sample wrong: %+v", snap[2])
	}
}

// TestReadFunctions: a read function is called at every read, a name
// registered more than once reads as the sum (beside a held counter of the
// same name too), and the exporters show the reads.
func TestReadFunctions(t *testing.T) {
	m := NewMetrics()
	if m.Has("msgr.arrived") {
		t.Error("empty registry has msgr.arrived")
	}
	var a, b int64 = 3, 4
	m.CounterFunc("msgr.arrived", func() int64 { return a })
	m.CounterFunc("msgr.arrived", func() int64 { return b })
	m.Counter("msgr.arrived").Add(10)
	m.GaugeFunc("serve.queue.depth", func() int64 { return a * b })
	if !m.Has("msgr.arrived") || !m.Has("serve.queue.depth") {
		t.Error("registered read functions not found")
	}
	if got := m.CounterValue("msgr.arrived"); got != 17 {
		t.Errorf("msgr.arrived = %d, want 3 + 4 + 10", got)
	}
	if got := m.CounterValue("serve.queue.depth"); got != 0 {
		t.Errorf("CounterValue of a gauge = %d", got)
	}
	a = 5
	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %+v, want one sample per name", snap)
	}
	if s := snap[0]; s.Name != "msgr.arrived" || s.Kind != KindCounter || s.Value != 19 {
		t.Errorf("counter sample = %+v, want msgr.arrived 19", s)
	}
	if s := snap[1]; s.Name != "serve.queue.depth" || s.Kind != KindGauge || s.Value != 20 {
		t.Errorf("gauge sample = %+v, want serve.queue.depth 20", s)
	}
	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "serve.queue.depth,gauge,20") || !strings.Contains(FormatMetrics(m), "19") {
		t.Errorf("exporters do not show the reads:\n%s%s", buf.String(), FormatMetrics(m))
	}
}

// TestMetricsConcurrency hammers one registry from many goroutines (the
// real engines update counters from daemon goroutines).
func TestMetricsConcurrency(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Counter("n").Inc()
				m.Histogram("h").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := m.CounterValue("n"); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := m.Histogram("h").Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

// TestChromeTraceSchema checks the exporter emits valid trace_event JSON
// with the fields chrome://tracing requires.
func TestChromeTraceSchema(t *testing.T) {
	tr := NewTracer()
	var now int64
	tr.SetClock(func() int64 { return now })
	tr.NameTrack(0, "daemon 0")
	tr.NameTrack(5, BusTrackName)
	now = 1001
	tr.Instant(0, "msgr", "inject", I("msgr", 1))
	tr.Span(5, "lan", "frame", 2000, 12345, I("bytes", 1500))

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.Unit)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		for _, key := range []string{"ph", "pid", "tid", "name"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event missing %q: %v", key, ev)
			}
		}
		if ph != "M" {
			if _, ok := ev["ts"]; !ok {
				t.Errorf("non-metadata event missing ts: %v", ev)
			}
			if _, ok := ev["args"]; !ok {
				t.Errorf("event missing args: %v", ev)
			}
		}
	}
	if phases["i"] != 1 || phases["X"] != 1 {
		t.Errorf("phase counts wrong: %v", phases)
	}
	// Metadata: process_name + 2 tracks x (thread_name + sort index).
	if phases["M"] != 5 {
		t.Errorf("metadata count = %d, want 5", phases["M"])
	}
	// ns-precision microsecond timestamps survive.
	if !strings.Contains(buf.String(), `"ts":1.001`) {
		t.Errorf("expected 1.001us timestamp in output:\n%s", buf.String())
	}
}

func TestMetricsExportFormats(t *testing.T) {
	m := NewMetrics()
	m.Counter("bus.msgs").Add(7)
	m.Gauge("lvl").Set(-2)
	m.Histogram("h").Observe(10)

	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv has %d lines: %q", len(lines), buf.String())
	}
	if lines[0] != "name,kind,value,count,min,max,mean,p50,p99" {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "bus.msgs,counter,7") {
		t.Errorf("csv counter row = %q", lines[1])
	}

	tbl := FormatMetrics(m)
	for _, want := range []string{"metric", "bus.msgs", "7", "n=1"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestUsecRendering(t *testing.T) {
	cases := map[int64]string{
		0:          "0",
		1000:       "1",
		1500:       "1.5",
		1501:       "1.501",
		999:        "0.999",
		12_345_678: "12345.678",
	}
	for ns, want := range cases {
		if got := usec(ns); got != want {
			t.Errorf("usec(%d) = %q, want %q", ns, got, want)
		}
	}
}
