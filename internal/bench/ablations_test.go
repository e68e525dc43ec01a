package bench

import (
	"strconv"
	"strings"
	"testing"

	"messengers/internal/lan"
)

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return f
}

func TestA1CopyAblation(t *testing.T) {
	cm := lan.DefaultCostModel()
	tb, err := RunA1CopyAblation(cm, 320, 8, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 { // one mandel row + two matmul rows
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if slow := cellFloat(t, row[3]); slow <= 1.0 {
			t.Errorf("%s: PVM-style copies should slow MESSENGERS down, got %.3f", row[0], slow)
		}
	}
	// The effect must be much larger on the data-movement-heavy workload.
	if mandel, matmul := cellFloat(t, tb.Rows[0][3]), cellFloat(t, tb.Rows[2][3]); matmul < mandel {
		t.Errorf("copy cost should bite harder on matmul: %.2f vs %.2f", matmul, mandel)
	}
}

func TestA3InterpreterOverhead(t *testing.T) {
	cm := lan.DefaultCostModel()
	tb, err := RunA3InterpreterOverhead(cm, []int{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		slow := cellFloat(t, row[3])
		if slow < 2 {
			t.Errorf("s=%s: interpreted multiply only %.1fx slower; expected a large gap", row[0], slow)
		}
	}
	// The relative overhead is roughly flat in s (both scale as s^3).
	first := cellFloat(t, tb.Rows[0][3])
	last := cellFloat(t, tb.Rows[len(tb.Rows)-1][3])
	if last > first*3 || first > last*3 {
		t.Errorf("overhead ratio wildly unstable: %.1f vs %.1f", first, last)
	}
}

func TestA4CodeCarrying(t *testing.T) {
	cm := lan.DefaultCostModel()
	tb, err := RunA4CodeCarrying(cm, 320, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	baseBytes := cellFloat(t, tb.Rows[0][2])
	carriedBytes := cellFloat(t, tb.Rows[1][2])
	if carriedBytes <= baseBytes {
		t.Errorf("carrying code must increase traffic: %v vs %v", carriedBytes, baseBytes)
	}
	if slow := cellFloat(t, tb.Rows[1][3]); slow <= 1.0 {
		t.Errorf("carrying code should cost time, slowdown %.3f", slow)
	}
}

func TestE1TrafficTable(t *testing.T) {
	cm := lan.DefaultCostModel()
	tb, err := RunTrafficTable(cm, 320, 8, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	msgrMsgs := cellFloat(t, tb.Rows[0][3])
	pvmMsgs := cellFloat(t, tb.Rows[1][3])
	if pvmMsgs <= msgrMsgs {
		t.Errorf("PVM fragments+acks (%v) should far exceed MESSENGERS messages (%v)", pvmMsgs, msgrMsgs)
	}
	msgrCPU := cellFloat(t, tb.Rows[0][6])
	pvmCPU := cellFloat(t, tb.Rows[1][6])
	if pvmCPU <= msgrCPU {
		t.Errorf("PVM manager funnel (%v) should occupy more central CPU than the MESSENGERS daemon (%v)", pvmCPU, msgrCPU)
	}
}

func TestT2AndT3(t *testing.T) {
	if testing.Short() {
		t.Skip("T2 sweep skipped in -short")
	}
	cm := lan.DefaultCostModel()
	t2, err := RunT2(cm)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 2 {
		t.Fatalf("T2 rows = %d", len(t2.Rows))
	}
	for _, row := range t2.Rows {
		if s := cellFloat(t, row[1]); s < 2 {
			t.Errorf("%s: speedup %v implausibly low", row[0], s)
		}
	}

	t3 := RunT3()
	if len(t3.Rows) != 4 {
		t.Fatalf("T3 rows = %d", len(t3.Rows))
	}
	// The paper's style claim: the MESSENGERS program is shorter in both
	// applications.
	mandelM, mandelP := cellFloat(t, t3.Rows[0][2]), cellFloat(t, t3.Rows[1][2])
	matmulM, matmulP := cellFloat(t, t3.Rows[2][2]), cellFloat(t, t3.Rows[3][2])
	if mandelM >= mandelP {
		t.Errorf("Mandelbrot: MESSENGERS %v lines vs PVM %v; should be shorter", mandelM, mandelP)
	}
	if matmulM >= matmulP {
		t.Errorf("matmul: MESSENGERS %v lines vs PVM %v; should be shorter", matmulM, matmulP)
	}
}
