package deadlib

import "testing"

func TestOnlyTests(t *testing.T) {
	if (&T{n: 2}).OnlyTests() != 2 {
		t.Fail()
	}
}
