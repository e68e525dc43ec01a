// Package obstest exercises the observability-namespace rules.
package obstest

import (
	"fmt"

	"messengers/internal/obs"
)

func metrics(m *obs.Metrics, i int) {
	m.Counter("hops.remote").Inc()                  // fine
	m.Gauge("gvt.value").Set(1)                     // fine
	m.Histogram("hop.bytes").Observe(64)            // fine
	m.Counter("serve.admitted").Inc()               // fine
	m.Counter(fmt.Sprintf("host.%d.busy", i)).Inc() // want "must be a string literal"
	m.Counter("NoDots").Inc()                       // want "lowercase dot-namespaced"
	m.Counter("Upper.Case").Inc()                   // want "lowercase dot-namespaced"
	m.Counter("madeup.thing").Inc()                 // want "unknown namespace"
	m.Gauge("hops.remote").Set(2)                   // want "registered as both"
	m.Counter("hops.remote").Add(2)                 // fine: same kind re-registration
}

func readFuncs(m *obs.Metrics, id string, n func() int64) {
	m.CounterFunc("msgr.arrived", n)             // fine
	m.GaugeFunc("serve.queue.depth", n)          // fine
	m.CounterFunc("hops.remote", n)              // fine: a read of a counter is a counter
	m.CounterFunc("serve.tenant."+id+".hops", n) // want "must be a string literal"
	m.GaugeFunc("Queue", n)                      // want "lowercase dot-namespaced"
	m.CounterFunc("madeup.reads", n)             // want "unknown namespace"
	m.GaugeFunc("msgr.arrived", n)               // want "registered as both"
	m.CounterFunc("gvt.value", n)                // want "registered as both"
}

func traces(t *obs.Tracer, id int) {
	t.Instant(0, "msgr", "hop", obs.I("n", 1))      // fine
	t.Span(0, "net", "net.send", 0, 10)             // fine
	t.Instant(0, "msgr", fmt.Sprintf("hop.%d", id)) // want "built with Sprintf"
	t.Instant(0, "Msgr!", "hop")                    // want "must match"
}

func suppressedName(m *obs.Metrics, i int) {
	m.Counter(fmt.Sprintf("host.%d.busy", i)).Inc() //lint:obsname per-host series, bounded
}
