package main

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"messengers/internal/obs"
)

// spanRec records the benchmark's own spans: one around every call into a
// layer (inject, wait, submit, complete), with the lap or session that
// caused it as parent. Spans inside core/vm/serve are a later change; these
// are taken from outside. A nil *spanRec records nothing, which is how the
// untraced run pays nothing for it.
type spanRec struct {
	tr   *obs.Tracer
	base time.Time
	next atomic.Int64
}

func newSpanRec() *spanRec {
	s := &spanRec{tr: obs.NewTracer(), base: time.Now()}
	s.tr.NameTrack(0, "mbench")
	return s
}

// id hands out the identifier a lap or session shares with its children.
func (s *spanRec) id() int64 {
	if s == nil {
		return 0
	}
	return s.next.Add(1)
}

// add records span name over [t0, t1) on the given client track. parent is
// 0 for a lap or session span and the lap's or session's id for a child.
func (s *spanRec) add(track int, name string, id, parent int64, t0, t1 time.Time) {
	if s == nil {
		return
	}
	s.tr.Span(track, "mbench", name, int64(t0.Sub(s.base)), int64(t1.Sub(t0)),
		obs.I("id", id), obs.I("parent", parent))
}

// stackRow is one line of the layer stack: a span name with its count, its
// total duration and its self time (duration minus what children cover).
type stackRow struct {
	name          string
	count         int64
	totalNs, self int64
}

// stack folds the recorded spans by name. A child's duration is taken off
// its parent's self time.
func (s *spanRec) stack() []stackRow {
	rows := map[string]*stackRow{}
	covered := map[int64]int64{} // parent id -> ns covered by children
	evs := s.tr.Events()
	field := func(ev *obs.Event, key string) int64 {
		for _, f := range ev.Args {
			if f.Key == key {
				return f.Int()
			}
		}
		return 0
	}
	for i := range evs {
		if p := field(&evs[i], "parent"); p != 0 {
			covered[p] += evs[i].Dur
		}
	}
	for i := range evs {
		ev := &evs[i]
		r := rows[ev.Name]
		if r == nil {
			r = &stackRow{name: ev.Name}
			rows[ev.Name] = r
		}
		r.count++
		r.totalNs += ev.Dur
		r.self += ev.Dur
		if field(ev, "parent") == 0 {
			r.self -= covered[field(ev, "id")]
		}
	}
	out := make([]stackRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].totalNs > out[j].totalNs })
	return out
}

func (s *spanRec) printStack(w io.Writer, title string) {
	fmt.Fprintf(w, "layer stack of %s (benchmark-side spans)\n", title)
	fmt.Fprintf(w, "  %-16s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range s.stack() {
		fmt.Fprintf(w, "  %-16s %10d %14.3f %14.3f\n", r.name, r.count,
			float64(r.totalNs)/1e6, float64(r.self)/1e6)
	}
}
