package sim

import (
	"testing"
)

// lcg is a tiny deterministic generator so queue property tests never
// depend on runtime randomness.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// drainOrder pushes the given schedule into q interleaved with pops and
// returns the observed pop order.
func drainOrder(t *testing.T, q eventQueue, ats []Time) []*event {
	t.Helper()
	var out []*event
	for i, at := range ats {
		q.Push(&event{at: at, seq: uint64(i)})
		// Interleave: every third push, pop once (monotonicity is not
		// required by the queue itself, only by the kernel).
		if i%3 == 2 {
			if e := q.Pop(); e != nil {
				out = append(out, e)
			}
		}
	}
	for {
		e := q.Pop()
		if e == nil {
			break
		}
		out = append(out, e)
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after drain: %d", q.Len())
	}
	return out
}

// TestQueueImplementationsAgree drives the heap, calendar, and adaptive
// queues with identical schedules — clustered, uniform, and heavy-tied —
// and requires identical pop orders. This is the determinism contract
// that lets the kernel switch structures without touching any golden.
func TestQueueImplementationsAgree(t *testing.T) {
	schedules := map[string][]Time{
		"uniform":   nil,
		"clustered": nil,
		"ties":      nil,
		"bursty":    nil,
	}
	r := lcg(1)
	for i := 0; i < 5000; i++ {
		schedules["uniform"] = append(schedules["uniform"], Time(r.next()%1_000_000))
		schedules["clustered"] = append(schedules["clustered"], Time((r.next()%50)*100_000+r.next()%10))
		schedules["ties"] = append(schedules["ties"], Time(r.next()%7))
		// bursty: long quiet gaps then dense bursts, the LAN model's shape.
		schedules["bursty"] = append(schedules["bursty"], Time((r.next()%10)*50_000_000+r.next()%200))
	}
	for name, ats := range schedules {
		t.Run(name, func(t *testing.T) {
			ref := drainOrder(t, newHeapQueue(), ats)
			for _, impl := range []struct {
				name string
				q    eventQueue
			}{
				{"calendar", newCalendarQueue(0)},
				{"adaptive", newAdaptiveQueue()},
			} {
				got := drainOrder(t, impl.q, ats)
				if len(got) != len(ref) {
					t.Fatalf("%s: drained %d events, heap drained %d", impl.name, len(got), len(ref))
				}
				for i := range ref {
					if got[i].at != ref[i].at || got[i].seq != ref[i].seq {
						t.Fatalf("%s: pop %d = (at=%d seq=%d), heap = (at=%d seq=%d)",
							impl.name, i, got[i].at, got[i].seq, ref[i].at, ref[i].seq)
					}
				}
			}
		})
	}
}

// TestAdaptiveQueueMigrates checks the hysteresis thresholds actually
// trigger both migrations and nothing is lost across them.
func TestAdaptiveQueueMigrates(t *testing.T) {
	a := newAdaptiveQueue()
	r := lcg(7)
	n := adaptUp + 500
	for i := 0; i < n; i++ {
		a.Push(&event{at: Time(r.next() % 1_000_000), seq: uint64(i)})
	}
	if a.cal == nil {
		t.Fatalf("expected migration to calendar above %d events", adaptUp)
	}
	var last *event
	count := 0
	for {
		e := a.Pop()
		if e == nil {
			break
		}
		if last != nil && !eventBefore(last, e) && (last.at != e.at || last.seq != e.seq) {
			t.Fatalf("out of order after migration: (%d,%d) then (%d,%d)", last.at, last.seq, e.at, e.seq)
		}
		last = e
		count++
	}
	if count != n {
		t.Fatalf("drained %d of %d events", count, n)
	}
	if a.cal != nil {
		t.Fatalf("expected migration back to heap after drain below %d", adaptDown)
	}
}

func BenchmarkEventQueue(b *testing.B) {
	for _, impl := range []string{"heap", "calendar", "adaptive"} {
		for _, hold := range []int{64, 1024, 8192} {
			b.Run(impl+"/"+itoa(hold), func(b *testing.B) {
				k := NewWithQueue(impl)
				r := lcg(11)
				// Steady state: `hold` pending events; each step pops one
				// and schedules one ahead — the classic hold model.
				for i := 0; i < hold; i++ {
					k.At(Time(r.next()%1_000_000), func() {})
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.Step()
					k.At(k.Now()+Time(r.next()%1_000_000), func() {})
				}
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
