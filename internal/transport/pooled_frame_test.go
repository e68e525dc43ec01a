package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"messengers/internal/compile"
	"messengers/internal/core"
	"messengers/internal/value"
	"messengers/internal/wire"
)

// TestPooledFrameReaderMatchesReadFrame: the accept loop's pooled reader and
// the exported ReadFrame accept and reject exactly the same streams.
func TestPooledFrameReaderMatchesReadFrame(t *testing.T) {
	frame := func(magic uint16, n uint32, body []byte) []byte {
		var hdr [wire.FrameHeaderLen]byte
		binary.LittleEndian.PutUint16(hdr[0:], magic)
		binary.LittleEndian.PutUint32(hdr[4:], n)
		return append(hdr[:], body...)
	}
	big := bytes.Repeat([]byte{7}, 100000) // beyond bufio's buffer and a fresh pool buffer
	cases := []struct {
		name   string
		stream []byte
		want   [][]byte // payloads read before the stream errors out
	}{
		{"empty then small then big", bytes.Join([][]byte{
			frame(wire.FrameMagic, 0, nil), frame(wire.FrameMagic, 3, []byte{1, 2, 3}), frame(wire.FrameMagic, uint32(len(big)), big),
		}, nil), [][]byte{{}, {1, 2, 3}, big}},
		{"short header", []byte{1, 2, 3}, nil},
		{"bad magic", frame(0xffff, 1, []byte{9}), nil},
		{"oversized", frame(wire.FrameMagic, wire.MaxFrame+1, nil), nil},
		{"truncated body", append(frame(wire.FrameMagic, 1, []byte{5}), frame(wire.FrameMagic, 10, []byte{1, 2})...), [][]byte{{5}}},
	}
	for _, tc := range cases {
		plain := bytes.NewReader(tc.stream)
		pooled := bufio.NewReader(bytes.NewReader(tc.stream))
		for i := 0; ; i++ {
			a, aerr := ReadFrame(plain)
			b, berr := readPooledFrame(pooled)
			if (aerr == nil) != (berr == nil) {
				t.Fatalf("%s, frame %d: ReadFrame err %v, pooled err %v", tc.name, i, aerr, berr)
			}
			if aerr != nil {
				if i != len(tc.want) {
					t.Errorf("%s: read %d frames before %v, want %d", tc.name, i, aerr, len(tc.want))
				}
				break
			}
			if !bytes.Equal(a, tc.want[i]) || !bytes.Equal(*b, tc.want[i]) {
				t.Fatalf("%s, frame %d: payloads differ (%d / %d / want %d bytes)", tc.name, i, len(a), len(*b), len(tc.want[i]))
			}
			wire.PutBuf(b)
		}
	}
}

// TestFrameBodyTracksBytesReceived: a peer that sends a header claiming
// 64 MB, then 16 bytes, then closes, gets an error from both readers, and
// what they allocated on the way tracks the 16 bytes, not the claim.
func TestFrameBodyTracksBytesReceived(t *testing.T) {
	var stream []byte
	stream = binary.LittleEndian.AppendUint16(stream, wire.FrameMagic)
	stream = binary.LittleEndian.AppendUint16(stream, wire.FrameVersion)
	stream = binary.LittleEndian.AppendUint32(stream, wire.MaxFrame)
	stream = append(stream, bytes.Repeat([]byte{1}, 16)...)
	for name, read := range map[string]func() error{
		"ReadFrame": func() error {
			_, err := ReadFrame(bytes.NewReader(stream))
			return err
		},
		"readPooledFrame": func() error {
			_, err := readPooledFrame(bufio.NewReader(bytes.NewReader(stream)))
			return err
		},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a frame 16 bytes into its 64 MB body was accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: 16 bytes of a claimed 64 MB body allocated %d bytes", name, grew)
		}
	}
}

// TestPooledFramesAcrossSizes drives the pooled inbound path the way
// hop_32k does, but with scalar and 32 KB walkers interleaved in both
// directions, so one pool serves frames of both sizes (plus GVT control
// traffic) and every buffer is reused across them. A frame recycled while
// anything still aliases it shows as a wrong checksum, a decode error, or a
// race report. Run under -race.
func TestPooledFramesAcrossSizes(t *testing.T) {
	const (
		n          = 64 // 64x64 floats = 32 KB aboard
		walkers    = 4  // of each kind
		scalarHops = 300
		blockHops  = 250 // 4*300 + 4*250 = 2200 hops
	)
	sys, eng := tcpSystem(t, 2)
	err := sys.BuildNetwork(core.NetSpec{
		Nodes: []core.NetNode{{Name: "r0", Daemon: 0}, {Name: "r1", Daemon: 1}},
		Links: []core.NetLink{
			{A: "r0", B: "r1", Name: "ring", Dir: 1},
			{A: "r1", B: "r0", Name: "ring", Dir: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"walker": `
			for (k = 0; k < hops; k++) {
				node.visits = node.visits + 1;
				hop(ll = "ring", ldir = +);
			}`,
		// Each hop bumps one diagonal element, so no two snapshots of a
		// walker are alike; the final sum covers the whole block.
		"blockwalker": `
			for (k = 0; k < hops; k++) {
				node.visits = node.visits + 1;
				d = k % n;
				matset(blk, d, d, matget(blk, d, d) + 1.0);
				hop(ll = "ring", ldir = +);
			}
			s = 0.0;
			for (i = 0; i < n; i++) { for (j = 0; j < n; j++) { s = s + matget(blk, i, j); } }
			node.sum = node.sum + s;`,
	} {
		prog, err := compile.Compile(name, src)
		if err != nil {
			t.Fatal(err)
		}
		sys.Register(prog)
	}

	rng := rand.New(rand.NewSource(15))
	var wantSum float64
	for w := 0; w < walkers; w++ {
		blk := value.NewMat(n, n)
		for i := range blk.Data {
			// Small integers: every sum is exact in float64.
			blk.Data[i] = float64(rng.Intn(1 << 20))
			wantSum += blk.Data[i]
		}
		wantSum += blockHops
		start := w % 2 // both directions busy at once
		err := sys.InjectAt(start, "blockwalker", fmt.Sprintf("r%d", start), map[string]value.Value{
			"hops": value.Int(blockHops), "n": value.Int(n), "blk": value.Matrix(blk),
		})
		if err != nil {
			t.Fatal(err)
		}
		err = sys.InjectAt(1-start, "walker", fmt.Sprintf("r%d", 1-start), map[string]value.Value{
			"hops": value.Int(scalarHops),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitQuiesce(t, sys, eng)

	var visits, sum float64
	for d := 0; d < 2; d++ {
		got := make(chan map[string]value.Value, 1)
		name := fmt.Sprintf("r%d", d)
		sys.Do(d, func(*core.Daemon) {
			vars, _ := sys.ReadNodeVars(d, name)
			got <- vars
		})
		vars := <-got
		visits += vars["visits"].AsNum()
		sum += vars["sum"].AsNum()
	}
	if want := float64(walkers * (scalarHops + blockHops)); visits != want {
		t.Errorf("sum of node.visits = %.0f, want %.0f hops", visits, want)
	}
	if sum != wantSum {
		t.Errorf("block checksum = %.0f, want %.0f", sum, wantSum)
	}
}
