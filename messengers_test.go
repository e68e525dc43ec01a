package messengers

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"
)

// The quickstart program: the Fig. 1(b) pattern — create a node on every
// neighboring daemon, shuttle back and forth over the created link, and
// leave a mark.
const quickstartScript = `
	create(ALL);
	node.visits = node.visits + 1;
	hop(ll = $last);
	node.center_hits = node.center_hits + 1;
	hop(ll = $last);
	node.visits = node.visits + 1;
	print("worker on", $address, "visited twice");
`

func TestPublicAPIOnRealSystem(t *testing.T) {
	sys, err := NewRealSystem(Config{Daemons: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.CompileAndRegister("quick", quickstartScript); err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(0, "quick", nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		sys.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("system did not quiesce")
	}
	for _, err := range sys.Errors() {
		t.Errorf("runtime error: %v", err)
	}
	if out := sys.Output(); len(out) != 3 {
		t.Errorf("output = %v", out)
	}
}

func TestPublicAPIOnSimSystem(t *testing.T) {
	var log bytes.Buffer
	reg := NewMetrics()
	sys, err := NewSimSystem(Config{Daemons: 3, Output: &log, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CompileAndRegister("quick", quickstartScript); err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(0, "quick", nil); err != nil {
		t.Fatal(err)
	}
	elapsed := sys.RunSim()
	if elapsed <= 0 {
		t.Errorf("elapsed = %v", elapsed)
	}
	for _, err := range sys.Errors() {
		t.Errorf("runtime error: %v", err)
	}
	if got := log.String(); strings.Count(got, "visited twice") != 2 {
		t.Errorf("log = %q", got)
	}
	if sys.Kernel() == nil || sys.Cluster() == nil {
		t.Error("sim accessors should be populated")
	}
	if reg.CounterValue("bus.msgs") == 0 {
		t.Error("no simulated traffic recorded")
	}
}

func TestPublicAPIOnTCPSystem(t *testing.T) {
	sys, err := NewTCPSystem(Config{Daemons: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if got := sys.Addrs(); len(got) != 3 {
		t.Fatalf("addrs = %v", got)
	}
	if err := sys.CompileAndRegister("quick", quickstartScript); err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(0, "quick", nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		sys.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("TCP system did not quiesce")
	}
	for _, err := range sys.Errors() {
		t.Errorf("runtime error: %v", err)
	}
}

func TestNativeFunctionsViaFacade(t *testing.T) {
	sys, err := NewSimSystem(Config{Daemons: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.RegisterNative("greet", func(ctx *NativeCtx, args []Value) (Value, error) {
		return StrValue("hello " + args[0].AsStr()), nil
	})
	if err := sys.CompileAndRegister("g", `node.msg = greet(who);`); err != nil {
		t.Fatal(err)
	}
	err = sys.Inject(0, "g", map[string]Value{"who": StrValue("world")})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSim()
	vars, ok := sys.ReadNodeVars(0, "init")
	if !ok || vars["msg"].AsStr() != "hello world" {
		t.Errorf("vars = %v", vars)
	}
}

func TestBuildNetworkViaFacade(t *testing.T) {
	sys, err := NewSimSystem(Config{Daemons: 2, Topology: Ring(2)})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.BuildNetwork(NetSpec{
		Nodes: []NetNode{{Name: "a", Daemon: 0}, {Name: "b", Daemon: 1}},
		Links: []NetLink{{A: "a", B: "b", Name: "ab"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CompileAndRegister("walk", `hop(ll = "ab"); node.here = 1;`); err != nil {
		t.Fatal(err)
	}
	if err := sys.InjectAt(0, "walk", "a", nil); err != nil {
		t.Fatal(err)
	}
	sys.RunSim()
	vars, ok := sys.ReadNodeVars(1, "b")
	if !ok || vars["here"].AsInt() != 1 {
		t.Errorf("vars = %v, ok=%v", vars, ok)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewRealSystem(Config{}); err == nil {
		t.Error("0 daemons should fail")
	}
	if _, err := NewSimSystem(Config{}); err == nil {
		t.Error("0 daemons should fail")
	}
	if _, err := NewTCPSystem(Config{}, nil); err == nil {
		t.Error("0 daemons should fail")
	}
	if _, err := NewTCPSystem(Config{Daemons: 2}, []string{"127.0.0.1:0"}); err == nil {
		t.Error("address count mismatch should fail")
	}
	if err := func() (err error) {
		defer func() {
			if recover() != nil {
				err = nil
			} else {
				err = errRunSimNoPanic
			}
		}()
		sys, _ := NewRealSystem(Config{Daemons: 1})
		defer sys.Close()
		sys.RunSim()
		return nil
	}(); err != nil {
		t.Error("RunSim on a real system should panic")
	}
}

var errRunSimNoPanic = &compileError{"RunSim did not panic"}

type compileError struct{ s string }

func (e *compileError) Error() string { return e.s }

func TestCompileErrorSurface(t *testing.T) {
	sys, err := NewSimSystem(Config{Daemons: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CompileAndRegister("bad", `x = ;`); err == nil {
		t.Error("syntax error should surface")
	}
}

// TestRegisterThenInjectNeverMisses: a program is everywhere the moment
// Register returns, so a walker injected right after it never reaches a
// daemon ahead of its code. Every round registers a source whose hash is
// new, as a fresh /v1/submit does. A registration that reaches daemon 1
// through its own queue loses to the arrival on tens of the 2000 rounds
// whenever two Ps are available.
func TestRegisterThenInjectNeverMisses(t *testing.T) {
	sys, err := NewTCPSystem(Config{Daemons: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	err = sys.BuildNetwork(NetSpec{
		Nodes: []NetNode{{Name: "a", Daemon: 0}, {Name: "b", Daemon: 1}},
		Links: []NetLink{{A: "a", B: "b", Name: "ab"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		src := fmt.Sprintf(`salt = %d; hop(ll = "ab"); hop(ll = "ab"); node.home = node.home + 1;`, i)
		if err := sys.CompileAndRegister("walker", src); err != nil {
			t.Fatal(err)
		}
		if err := sys.InjectAt(0, "walker", "a", nil); err != nil {
			t.Fatal(err)
		}
		sys.Wait()
	}
	if errs := sys.Errors(); len(errs) > 0 {
		t.Fatalf("%d of %d walkers lost, first: %v", len(errs), rounds, errs[0])
	}
	if vars, _ := sys.ReadNodeVars(0, "a"); vars["home"].AsInt() != rounds {
		t.Errorf("%d of %d walkers came home", vars["home"].AsInt(), rounds)
	}
}

// TestRegisterWhileScriptsInject: Register and RegisterNative are safe
// beside running Messengers that resolve scripts and natives by name, which
// in msgrd -serve is one tenant's fresh submit against another tenant's
// running script. The race detector is the judge (CI runs this under
// -race -cpu 2,4).
func TestRegisterWhileScriptsInject(t *testing.T) {
	sys, err := NewRealSystem(Config{Daemons: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.RegisterNative("tick", func(*NativeCtx, []Value) (Value, error) { return IntValue(1), nil })
	for name, src := range map[string]string{
		"child":  `node.born = node.born + 1;`,
		"parent": `while (node.stop == nil) { inject("child"); node.sent = node.sent + tick(); }`,
		"stop":   `node.stop = 1;`,
	} {
		if err := sys.CompileAndRegister(name, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Inject(0, "parent", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := sys.CompileAndRegister("fresh", fmt.Sprintf(`salt = %d;`, i)); err != nil {
			t.Fatal(err)
		}
	}
	sys.RegisterNative("late", func(*NativeCtx, []Value) (Value, error) { return NilValue(), nil })
	if err := sys.Inject(0, "stop", nil); err != nil {
		t.Fatal(err)
	}
	sys.Wait()
	for _, err := range sys.Errors() {
		t.Errorf("runtime error: %v", err)
	}
	vars, _ := sys.ReadNodeVars(0, "init")
	if sent, born := vars["sent"].AsInt(), vars["born"].AsInt(); sent == 0 || sent != born {
		t.Errorf("parent injected %d children, %d ran", sent, born)
	}
}

// TestReplicasShareNothingMutable: a hop with three matching links clones
// a Messenger that carries an injected array it never references and a nil
// variable, and the replicas run on three daemons at once. Each replica
// stores into its own variables, and under recovery every remote hop
// snapshots its replica (reading the shared tail) and releases it, while
// its siblings do the same on other daemons. The node variables must equal
// the simulator's sequential run, and the race detector is the judge of
// the rest (CI runs this under -race -cpu 2,4).
func TestReplicasShareNothingMutable(t *testing.T) {
	const n = 40
	spec := NetSpec{
		Nodes: []NetNode{{Name: "hub", Daemon: 0}, {Name: "a", Daemon: 1}, {Name: "b", Daemon: 2}, {Name: "c", Daemon: 3}},
		Links: []NetLink{
			{A: "hub", B: "a", Name: "spoke"}, {A: "hub", B: "b", Name: "spoke"}, {A: "hub", B: "c", Name: "spoke"},
			{A: "a", B: "b", Name: "ring", Dir: 1}, {A: "b", B: "c", Name: "ring", Dir: 1}, {A: "c", B: "a", Name: "ring", Dir: 1},
		},
	}
	run := func(sys *System, wait func()) map[string]map[string]Value {
		t.Helper()
		defer sys.Close()
		if err := sys.BuildNetwork(spec); err != nil {
			t.Fatal(err)
		}
		err := sys.CompileAndRegister("replica", `
			hop(ll = "spoke");
			origin = $daemon;
			gap = nil;
			for (k = 0; k < n; k++) {
				acc = acc + k * origin;
				hop(ll = "ring", ldir = +);
				node.visits = node.visits + 1;
				node.acc = node.acc + acc;
				node.gaps = node.gaps + (gap == nil);
			}
		`)
		if err != nil {
			t.Fatal(err)
		}
		err = sys.InjectAt(0, "replica", "hub", map[string]Value{
			"n":     IntValue(n),
			"gap":   IntValue(1),
			"cargo": ArrValue([]Value{IntValue(7), StrValue("aboard"), ArrValue([]Value{NumValue(0.5)})}),
			"hole":  NilValue(),
		})
		if err != nil {
			t.Fatal(err)
		}
		wait()
		for _, err := range sys.Errors() {
			t.Errorf("runtime error: %v", err)
		}
		out := map[string]map[string]Value{}
		for d, name := range []string{"hub", "a", "b", "c"} {
			out[name], _ = sys.ReadNodeVars(d, name)
		}
		return out
	}
	seq, err := NewSimSystem(Config{Daemons: 4, Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	want := run(seq, func() { seq.RunSim() })
	par, err := NewRealSystem(Config{Daemons: 4, Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	got := run(par, par.Wait)
	sameVars := func(a, b map[string]Value) bool { return maps.EqualFunc(a, b, Value.Equal) }
	if !maps.EqualFunc(got, want, sameVars) {
		t.Errorf("replicas on three daemons left %v, the sequential run %v", got, want)
	}
	visits := 0
	for _, vars := range want {
		visits += int(vars["visits"].AsInt())
	}
	if visits != 3*n {
		t.Errorf("%d visits, want %d", visits, 3*n)
	}
}
