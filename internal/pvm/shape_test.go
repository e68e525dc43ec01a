package pvm

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"messengers/internal/lan"
	"messengers/internal/matmul"
	"messengers/internal/obs"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// machineKind builds a fresh machine of n hosts counting into reg, and the
// function that runs its tasks to the end and returns the simulated time
// (zero on the real machine).
type machineKind struct {
	name  string
	start func(t *testing.T, n int, reg *obs.Metrics) (*Machine, func() sim.Time)
}

var machineKinds = []machineKind{
	{"sim", func(t *testing.T, n int, reg *obs.Metrics) (*Machine, func() sim.Time) {
		k, m := simMachine(t, n)
		m.cluster.Observe(nil, reg)
		m.Observe(nil, reg)
		return m, k.Run
	}},
	{"real", func(t *testing.T, n int, reg *obs.Metrics) (*Machine, func() sim.Time) {
		m := NewRealMachine(n)
		m.Observe(nil, reg)
		return m, func() sim.Time { m.Wait(); return 0 }
	}},
}

// packMixed packs an int, a 40x40 matrix, a held 3x3 matrix and a 25x30
// matrix. byShape packs the 40x40 and 25x30 matrices by shape; otherwise
// every field is held.
func packMixed(p *Proc, held *value.Mat, byShape bool) {
	p.InitSend()
	p.PkInt(7)
	if byShape {
		p.PkMatShape(40, 40)
	} else {
		p.PkMat(value.NewMat(40, 40))
	}
	p.PkMat(held)
	if byShape {
		p.PkMatShape(25, 30)
	} else {
		p.PkMat(value.NewMat(25, 30))
	}
}

// unpackMixed unpacks what packMixed packed, in pack order.
func unpackMixed(t *testing.T, p *Proc, b *Buffer, held *value.Mat, byShape bool) {
	if v := p.UpkInt(b); v != 7 {
		t.Errorf("int = %d, want 7", v)
	}
	if byShape {
		p.UpkMatShape(b, 40, 40)
	} else {
		p.UpkMat(b, value.NewMat(40, 40))
	}
	got := value.NewMat(3, 3)
	p.UpkMat(b, got)
	if matmul.MaxAbsDiff(held, got) != 0 {
		t.Errorf("held matrix between counted ones read %v, want %v", got.Data, held.Data)
	}
	if byShape {
		p.UpkMatShape(b, 25, 30)
	} else {
		p.UpkMat(b, value.NewMat(25, 30))
	}
	if b.pos != len(b.data) {
		t.Errorf("unpacked %d of %d held bytes", b.pos, len(b.data))
	}
}

// TestCountedMatricesTravelLikeHeldOnes sends one mixed buffer with Send
// and one with Mcast, once with two matrices packed by shape and once all
// in bytes. Both runs must unpack the same fields in order and take the
// same simulated time, message lengths (so fragments) and pvm.* and bus.*
// counts.
func TestCountedMatricesTravelLikeHeldOnes(t *testing.T) {
	held := value.NewMat(3, 3)
	for i := range held.Data {
		held.Data[i] = float64(i) + 0.5
	}
	counters := []string{
		"pvm.sends", "pvm.send.bytes", "pvm.recvs", "pvm.drops", "pvm.pack.bytes", "pvm.unpack.bytes",
		"bus.msgs", "bus.bytes",
	}
	type outcome struct {
		elapsed sim.Time
		lengths []int
		counts  []int64
	}
	for _, mk := range machineKinds {
		t.Run(mk.name, func(t *testing.T) {
			run := func(byShape bool) outcome {
				reg := obs.NewMetrics()
				m, drain := mk.start(t, 3, reg)
				var mu sync.Mutex
				var lengths []int
				receive := func(p *Proc, tag int) {
					b := p.Recv(AnySource, tag)
					mu.Lock()
					lengths = append(lengths, b.length())
					mu.Unlock()
					unpackMixed(t, p, b, held, byShape)
				}
				r1 := m.SpawnAt("r1", 1, func(p *Proc) {
					receive(p, 1)
					receive(p, 2)
				})
				r2 := m.SpawnAt("r2", 2, func(p *Proc) { receive(p, 2) })
				m.SpawnAt("s", 0, func(p *Proc) {
					packMixed(p, held, byShape)
					p.Send(r1, 1)
					packMixed(p, held, byShape)
					p.Mcast([]TID{r1, r2}, 2)
				})
				elapsed := drain()
				checkErrs(t, m)
				slices.Sort(lengths)
				o := outcome{elapsed: elapsed, lengths: lengths}
				for _, c := range counters {
					o.counts = append(o.counts, reg.CounterValue(c))
				}
				return o
			}
			bytes, shape := run(false), run(true)
			if len(bytes.lengths) != 3 || bytes.counts[2] != 3 {
				t.Fatalf("byte run received %d messages, counted %d", len(bytes.lengths), bytes.counts[2])
			}
			if !slices.Equal(bytes.lengths, shape.lengths) {
				t.Errorf("message lengths: bytes %v, shape %v", bytes.lengths, shape.lengths)
			}
			for i, c := range counters {
				if bytes.counts[i] != shape.counts[i] {
					t.Errorf("%s: bytes %d, shape %d", c, bytes.counts[i], shape.counts[i])
				}
			}
			if bytes.elapsed != shape.elapsed {
				t.Errorf("simulated time: bytes %v, shape %v", bytes.elapsed, shape.elapsed)
			}
			if mk.name == "sim" {
				if frags := lan.DefaultCostModel().Frags(bytes.lengths[0]); frags < 2 {
					t.Errorf("a message of %d bytes spans %d fragments, want several", bytes.lengths[0], frags)
				}
			}
		})
	}
}

// TestMatrixFormMisuseAborts unpacks a matrix in the other form than it was
// packed in, and reads held bytes across a matrix packed by shape. Each
// aborts the task with a pvm: error before anything is read into the
// destination.
func TestMatrixFormMisuseAborts(t *testing.T) {
	cases := []struct {
		name   string
		pack   func(p *Proc)
		unpack func(p *Proc, b *Buffer, dst *value.Mat)
		want   string
	}{
		{
			name: "bytes_of_counted",
			pack: func(p *Proc) { p.PkInt(1); p.PkMatShape(2, 2) },
			unpack: func(p *Proc, b *Buffer, dst *value.Mat) {
				p.UpkInt(b)
				p.UpkMat(b, dst)
			},
			want: "pvm: unpack of 4 bytes across a matrix packed by shape",
		},
		{
			name:   "int_across_counted",
			pack:   func(p *Proc) { p.PkMatShape(2, 2) },
			unpack: func(p *Proc, b *Buffer, _ *value.Mat) { p.UpkInt(b) },
			want:   "pvm: unpack of 8 bytes across a matrix packed by shape",
		},
		{
			name: "counted_of_bytes",
			pack: func(p *Proc) {
				p.PkInt(1)
				p.PkMat(value.NewMat(2, 2))
				p.PkMatShape(2, 2)
			},
			unpack: func(p *Proc, b *Buffer, _ *value.Mat) {
				p.UpkInt(b)
				p.UpkMatShape(b, 2, 2)
			},
			want: "pvm: unpack by shape at 8, where no matrix was packed by shape",
		},
	}
	for _, mk := range machineKinds {
		for _, tc := range cases {
			t.Run(mk.name+"/"+tc.name, func(t *testing.T) {
				m, drain := mk.start(t, 1, obs.NewMetrics())
				dst := value.NewMat(2, 2)
				for i := range dst.Data {
					dst.Data[i] = -1
				}
				var reached atomic.Bool
				recv := m.SpawnAt("r", 0, func(p *Proc) {
					tc.unpack(p, p.Recv(AnySource, AnyTag), dst)
					reached.Store(true)
				})
				m.SpawnAt("s", 0, func(p *Proc) {
					p.InitSend()
					tc.pack(p)
					p.Send(recv, 0)
				})
				drain()
				errs := m.Errors()
				if len(errs) != 1 || !strings.Contains(errs[0].Error(), tc.want) {
					t.Errorf("errors = %v, want one containing %q", errs, tc.want)
				}
				if reached.Load() {
					t.Error("the task ran on after a misused unpack")
				}
				for i, v := range dst.Data {
					if v != -1 {
						t.Fatalf("destination written at %d: %v", i, v)
					}
				}
			})
		}
	}
}
