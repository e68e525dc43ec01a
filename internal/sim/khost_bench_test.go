package sim

import (
	"strconv"
	"testing"
)

// BenchmarkEventQueue is the classic hold model: `hold` pending events,
// and each iteration fires one and schedules one ahead.
func BenchmarkEventQueue(b *testing.B) {
	for _, hold := range []int{64, 1024, 8192} {
		b.Run(strconv.Itoa(hold), func(b *testing.B) {
			k := New()
			r := lcg(11)
			fn := func() {}
			for i := 0; i < hold; i++ {
				k.At(Time(r.next()%1_000_000), fn)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
				k.At(k.Now()+Time(r.next()%1_000_000), fn)
			}
		})
	}
}

// BenchmarkKHostTimers is the 1k-host self-rescheduling timer workload that
// mbench's sim.*.events_per_s probes time, as an in-package benchmark so
// the event queue can be profiled where its internals are visible.
func BenchmarkKHostTimers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := New()
		var fired int64
		events := int64(200_000)
		for h := 0; h < 1000; h++ {
			period := Time(1000 + 17*h)
			var tick func()
			tick = func() {
				fired++
				if fired < events {
					k.After(period, tick)
				}
			}
			k.After(period, tick)
		}
		k.Run()
	}
}

// BenchmarkProcSwitch is one process advancing b.N times: each iteration is
// one event plus a switch into the process and back, the cost every PVM
// Recv, Compute and pack charge pays.
func BenchmarkProcSwitch(b *testing.B) {
	k := New()
	defer k.Shutdown()
	k.Spawn("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
	})
	b.ResetTimer()
	k.Run()
}
