package pvm

import (
	"sync"
	"testing"

	"messengers/internal/matmul"
	"messengers/internal/value"
)

// TestRealMachineBlockMatmul runs the paper's Fig. 9 algorithm on the real
// (goroutine) machine and validates the distributed product.
func TestRealMachineBlockMatmul(t *testing.T) {
	const m, s = 3, 8
	n := m * s
	mach := NewRealMachine(m * m)
	a, b := matmul.Random(n, 1), matmul.Random(n, 2)
	var mu sync.Mutex
	cOut := value.NewMat(n, n)

	worker := func(i, j int) TaskFunc {
		return func(w *Proc) {
			w.JoinGroupAs("mm", i*m+j)
			myRow := make([]TID, m)
			for jj := 0; jj < m; jj++ {
				myRow[jj] = w.Gettid("mm", i*m+jj)
			}
			north := w.Gettid("mm", ((i-1+m)%m)*m+j)
			south := w.Gettid("mm", ((i+1)%m)*m+j)
			blockA := matmul.GetBlock(a, i, j, s)
			blockB := matmul.GetBlock(b, i, j, s)
			blockC := value.NewMat(s, s)
			recvA := value.NewMat(s, s)
			recvB := value.NewMat(s, s)
			for k := 0; k < m; k++ {
				currA := blockA
				if j == (i+k)%m {
					w.InitSend()
					w.PkMat(blockA)
					w.Mcast(myRow, 100+k)
				} else {
					w.UpkMat(w.Recv(AnySource, 100+k), recvA)
					currA = recvA
				}
				matmul.AddMul(blockC, currA, blockB)
				w.InitSend()
				w.PkMat(blockB)
				w.Send(north, 200+k)
				blockB = recvB
				w.UpkMat(w.Recv(south, 200+k), blockB)
			}
			mu.Lock()
			matmul.SetBlock(cOut, i, j, blockC)
			mu.Unlock()
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			mach.SpawnAt("w", i*m+j, worker(i, j))
		}
	}
	mach.Wait()
	for _, err := range mach.Errors() {
		t.Fatalf("task error: %v", err)
	}
	ref := matmul.Naive(a, b)
	if d := matmul.MaxAbsDiff(ref, cOut); d > 1e-9 {
		t.Errorf("distributed result wrong by %g", d)
	}
}

// TestRealMachineGroupsDynamics exercises the blocking Gettid across
// goroutines.
func TestRealMachineGroupsDynamics(t *testing.T) {
	mach := NewRealMachine(2)
	got := make(chan TID, 1)
	mach.SpawnAt("late-resolver", 0, func(p *Proc) {
		// Blocks until the other task joins.
		tid := p.Gettid("g", 0)
		got <- tid
		p.InitSend()
		p.PkInt(1)
		p.Send(tid, 9) // release the joiner
	})
	var joined TID
	mach.SpawnAt("joiner", 1, func(p *Proc) {
		p.JoinGroupAs("g", 0)
		joined = p.MyTID()
		// Stay in the group until the resolver has found us (exiting
		// leaves all groups).
		p.Recv(AnySource, 9)
	})
	mach.Wait()
	for _, err := range mach.Errors() {
		t.Fatalf("task error: %v", err)
	}
	if tid := <-got; tid != joined {
		t.Errorf("Gettid = %d, want %d", tid, joined)
	}
}
