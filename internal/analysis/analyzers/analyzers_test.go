package analyzers_test

import (
	"testing"

	"messengers/internal/analysis/analysistest"
	"messengers/internal/analysis/analyzers"
)

// Each analyzer runs over a testdata package that poses as a real package
// path, with expectations written as // want comments next to the seeded
// violations (and //lint: suppressions proving the escape hatch works).

func TestSimDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata/simdeterminism", "messengers/internal/sim",
		analyzers.SimDeterminism)
}

func TestSimDeterminismSkipsNonDetPackages(t *testing.T) {
	// The same file analyzed under a transport path reports nothing: the
	// TCP engine is allowed wall clocks. No // want expectations fire
	// because the analyzer never runs its body.
	analysistest.Run(t, "testdata/nondet", "messengers/internal/transport",
		analyzers.SimDeterminism)
}

func TestStickyErr(t *testing.T) {
	analysistest.Run(t, "testdata/stickyerr", "messengers/internal/stickytest",
		analyzers.StickyErr)
}

func TestObsNames(t *testing.T) {
	analysistest.Run(t, "testdata/obsnames", "messengers/internal/obstest",
		analyzers.ObsNames)
}

func TestLockHold(t *testing.T) {
	analysistest.Run(t, "testdata/lockhold", "messengers/internal/core",
		analyzers.LockHold)
}

func TestKindSwitch(t *testing.T) {
	// Analyzed as internal/vm, inside the proof-chain scope: partial
	// switches over value.Kind fire, defaults and suppressions do not.
	analysistest.Run(t, "testdata/kindswitch", "messengers/internal/vm",
		analyzers.KindSwitch)
}

func TestKindSwitchSkipsOutsidePackages(t *testing.T) {
	// The same file under a transport path reports nothing: packages off
	// the proof chain may dispatch on whatever subset they need.
	analysistest.Run(t, "testdata/kindswitchskip", "messengers/internal/transport",
		analyzers.KindSwitch)
}

func TestVMDispatchConfinement(t *testing.T) {
	// Analyzed as a transport package, every lowered-API reference fires.
	analysistest.Run(t, "testdata/vmdispatch", "messengers/internal/transport",
		analyzers.VMDispatch)
}

func TestDeadCode(t *testing.T) {
	// A library and the main package that calls it, loaded under their
	// real paths so the importer's copy of the library and its own load
	// name each declaration alike.
	analysistest.Run(t, "testdata/deadcode", "messengers/internal/analysis/analyzers/testdata/deadcode",
		analyzers.DeadCode)
}
