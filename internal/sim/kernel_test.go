package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// lcg is a tiny deterministic generator so schedule tests never depend on
// runtime randomness.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

func TestEventOrdering(t *testing.T) {
	k := New()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events fired out of order: %v", got)
	}
	if k.Now() != 30 {
		t.Errorf("final time = %v, want 30", k.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	k := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	k := New()
	var fired []Time
	k.After(10, func() {
		fired = append(fired, k.Now())
		k.After(5, func() { fired = append(fired, k.Now()) })
	})
	k.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Errorf("fired = %v, want [10 15]", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	k := New()
	ran := false
	k.After(-5, func() { ran = true })
	k.Run()
	if !ran || k.Now() != 0 {
		t.Errorf("ran=%v now=%v", ran, k.Now())
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	var fired []Time
	for _, at := range []Time{5, 10, 15} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	k.RunUntil(10)
	if len(fired) != 2 {
		t.Errorf("fired %v, want events at 5 and 10", fired)
	}
	if k.Now() != 10 {
		t.Errorf("now = %v, want 10", k.Now())
	}
	k.RunUntil(12)
	if k.Now() != 12 || len(fired) != 2 {
		t.Errorf("now = %v fired = %v", k.Now(), fired)
	}
	k.Run()
	if len(fired) != 3 {
		t.Errorf("remaining event did not fire: %v", fired)
	}
}

func TestPropRandomEventsFireInTimestampOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := New()
		n := 50
		times := make([]Time, n)
		var fired []Time
		for i := range times {
			times[i] = Time(r.Intn(100))
			at := times[i]
			k.At(at, func() { fired = append(fired, at) })
		}
		k.Run()
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		if len(fired) != n {
			return false
		}
		for i := range fired {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestEventsFireInScheduleOrder drives the kernel with four schedules —
// uniform, clustered, heavy-tied and bursty — in which every third callback
// schedules one more event, and requires the fired sequence to be exactly a
// stable sort by time of everything scheduled, i.e. (time, sequence) order.
// Every golden in the repository rests on that order.
func TestEventsFireInScheduleOrder(t *testing.T) {
	schedules := []struct {
		name string
		at   func(r *lcg) Time
	}{
		{"uniform", func(r *lcg) Time { return Time(r.next() % 1_000_000) }},
		{"clustered", func(r *lcg) Time { return Time((r.next()%50)*100_000 + r.next()%10) }},
		{"ties", func(r *lcg) Time { return Time(r.next() % 7) }},
		// bursty: long quiet gaps then dense bursts, the LAN model's shape.
		{"bursty", func(r *lcg) Time { return Time((r.next()%10)*50_000_000 + r.next()%200) }},
	}
	type ev struct {
		at  Time
		seq int
	}
	for _, s := range schedules {
		t.Run(s.name, func(t *testing.T) {
			k := New()
			r := lcg(1)
			var scheduled, fired []ev
			var schedule func(at Time)
			schedule = func(at Time) {
				e := ev{at, len(scheduled)}
				scheduled = append(scheduled, e)
				k.At(at, func() {
					fired = append(fired, e)
					if e.seq%3 == 2 {
						schedule(k.Now() + s.at(&r))
					}
				})
			}
			for i := 0; i < 5000; i++ {
				schedule(s.at(&r))
			}
			k.Run()
			want := slices.Clone(scheduled)
			sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
			if len(fired) != len(want) {
				t.Fatalf("fired %d of %d scheduled events", len(fired), len(want))
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("event %d fired (at=%d seq=%d), want (at=%d seq=%d)",
						i, fired[i].at, fired[i].seq, want[i].at, want[i].seq)
				}
			}
		})
	}
}

// TestScheduleAllocatesNothing: once the heap and the slot slab have grown
// to the pending set, scheduling and firing an event allocates nothing.
func TestScheduleAllocatesNothing(t *testing.T) {
	k := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.At(Time(i), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.At(k.Now()+64, fn)
		k.Step()
	})
	if allocs != 0 {
		t.Errorf("At+Step allocates %v times per event, want 0", allocs)
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.500000s" {
		t.Errorf("String() = %q", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v", got)
	}
}
