package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"messengers/internal/compile"
	"messengers/internal/lan"
	"messengers/internal/logical"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// distGVTEnv prepends WithDistributedGVT when MSGR_DIST_GVT=1, so the CI
// scale job (and anyone debugging) can run the entire core suite under the
// ring-reduction GVT protocol with no code changes. Prepended, not
// appended: a test that explicitly sets a GVT implementation still wins.
func distGVTEnv(opts []Option) []Option {
	if os.Getenv("MSGR_DIST_GVT") == "1" {
		return append([]Option{WithDistributedGVT()}, opts...)
	}
	return opts
}

// simSystem builds a simulated n-daemon system on a full-mesh daemon
// network.
func simSystem(t *testing.T, n int, opts ...Option) (*sim.Kernel, *System) {
	t.Helper()
	k := sim.New()
	cluster := lan.NewCluster(k, lan.DefaultCostModel(), n, lan.SPARC110)
	sys := NewSystem(NewSimEngine(cluster), FullMesh(n), distGVTEnv(opts)...)
	return k, sys
}

// runSim drains the kernel and fails on any recorded Messenger error.
func runSim(t *testing.T, k *sim.Kernel, sys *System) sim.Time {
	t.Helper()
	end := k.Run()
	for _, err := range sys.Errors() {
		t.Errorf("runtime error: %v", err)
	}
	if live := sys.Live(); live != 0 {
		t.Errorf("live work = %d after kernel drained", live)
	}
	return end
}

func register(t *testing.T, sys *System, name, src string) {
	t.Helper()
	prog, err := compile.Compile(name, src)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	sys.Register(prog)
}

func TestInjectAndPrint(t *testing.T) {
	k, sys := simSystem(t, 2)
	register(t, sys, "hello", `print("hello from", $address);`)
	if err := sys.Inject(1, "hello", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	out := sys.Output()
	if len(out) != 1 || out[0] != "hello from d1" {
		t.Errorf("output = %q", out)
	}
	if st := sys.TotalStats(); st.Finished != 1 {
		t.Errorf("finished = %d", st.Finished)
	}
}

// TestBuiltinWinsOverNative: lowering resolves a builtin's name once, so a
// daemon native registered under the same name never runs, while a native
// under any other name still pauses to the daemon by name.
func TestBuiltinWinsOverNative(t *testing.T) {
	k, sys := simSystem(t, 1)
	sys.RegisterNative("len", func(*NativeCtx, []value.Value) (value.Value, error) {
		return value.Int(99), nil
	})
	sys.RegisterNative("twice", func(_ *NativeCtx, args []value.Value) (value.Value, error) {
		return value.Int(2 * args[0].AsInt()), nil
	})
	register(t, sys, "calls", `node.a = len("abc"); node.b = twice(4);`)
	if err := sys.Inject(0, "calls", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	vars := sys.Daemon(0).Store().Init().Vars
	if a, b := vars["a"].AsInt(), vars["b"].AsInt(); a != 3 || b != 8 {
		t.Errorf("len(\"abc\") = %d, twice(4) = %d; want the builtin's 3 and the native's 8", a, b)
	}
}

func TestInjectUnknownScript(t *testing.T) {
	_, sys := simSystem(t, 1)
	if err := sys.Inject(0, "nope", nil); err == nil {
		t.Error("injecting an unregistered script should fail")
	}
	if err := sys.Inject(5, "nope", nil); err == nil {
		t.Error("injecting at an unknown daemon should fail")
	}
}

func TestCreateAllBuildsNodesOnAllNeighbors(t *testing.T) {
	k, sys := simSystem(t, 4)
	register(t, sys, "spread", `
		create(ALL);
		node.mark = $daemon;
	`)
	if err := sys.Inject(0, "spread", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	// Daemon 0's init gained 3 links; daemons 1..3 each gained one node
	// with mark set.
	if got := len(sys.Daemon(0).Store().Init().Links); got != 3 {
		t.Errorf("init links = %d, want 3", got)
	}
	for d := 1; d < 4; d++ {
		st := sys.Daemon(d).Store()
		if nodes := nodeCount(st); nodes != 2 { // init + created node
			t.Errorf("daemon %d has %d nodes, want 2", d, nodes)
		}
		found := false
		for id := logical.NodeID(1); id <= 10 && !found; id++ {
			if n, ok := st.Node(id); ok && n != st.Init() {
				if n.Vars["mark"].AsInt() != int64(d) {
					t.Errorf("daemon %d mark = %v", d, n.Vars["mark"])
				}
				found = true
			}
		}
		if !found {
			t.Errorf("daemon %d has no created node", d)
		}
	}
	if st := sys.TotalStats(); st.Creates != 3 || st.Finished != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHopReplicationAndLastIdentity(t *testing.T) {
	// The Fig. 1(b) pattern: create a node, hop back over the same link,
	// then hop out again — $last must identify the single unnamed link.
	k, sys := simSystem(t, 2)
	register(t, sys, "shuttle", `
		create(ALL);          // now at the new node on d1
		hop(ll = $last);      // back at init on d0
		node.at_center = 1;
		hop(ll = $last);      // out to the worker node again
		node.at_worker = $daemon;
	`)
	if err := sys.Inject(0, "shuttle", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	if v := sys.Daemon(0).Store().Init().Vars["at_center"]; v.AsInt() != 1 {
		t.Errorf("at_center = %v", v)
	}
	vars, ok := findNonInitNodeVars(sys, 1)
	if !ok || vars["at_worker"].AsInt() != 1 {
		t.Errorf("at_worker = %v (ok=%v)", vars, ok)
	}
	st := sys.TotalStats()
	if st.RemoteHops != 2 { // back and out (create transfer is not a hop)
		t.Errorf("remote hops = %d, want 2", st.RemoteHops)
	}
}

// nodeCount counts the nodes resident in st, among the first few IDs a
// small test allocates.
func nodeCount(st *logical.Store) int {
	n := 0
	for id := logical.NodeID(1); id <= 16; id++ {
		if _, ok := st.Node(id); ok {
			n++
		}
	}
	return n
}

func findNonInitNodeVars(sys *System, daemon int) (map[string]value.Value, bool) {
	st := sys.Daemon(daemon).Store()
	for id := logical.NodeID(1); id <= 16; id++ {
		if n, ok := st.Node(id); ok && n.Name != logical.InitName {
			return n.Vars, true
		}
	}
	return nil, false
}

func TestHopFanOutReplicates(t *testing.T) {
	// One Messenger hops along all links at once and increments a counter
	// at each destination.
	k, sys := simSystem(t, 5)
	register(t, sys, "fan", `
		create(ALL);
		node.seen = 1;
	`)
	if err := sys.Inject(0, "fan", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	count := 0
	for d := 1; d < 5; d++ {
		if vars, ok := findNonInitNodeVars(sys, d); ok && vars["seen"].AsInt() == 1 {
			count++
		}
	}
	if count != 4 {
		t.Errorf("replicas reached %d daemons, want 4", count)
	}
}

func TestMessengerDiesOnNoMatch(t *testing.T) {
	k, sys := simSystem(t, 2)
	register(t, sys, "lost", `
		hop(ll = "no_such_link");
		print("unreachable");
	`)
	if err := sys.Inject(0, "lost", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	if len(sys.Output()) != 0 {
		t.Error("statements after a dead-end hop must not run")
	}
	if st := sys.TotalStats(); st.Died != 1 {
		t.Errorf("died = %d, want 1", st.Died)
	}
}

func TestDeleteRemovesLinksAndSingletonNodes(t *testing.T) {
	k, sys := simSystem(t, 2)
	register(t, sys, "deleter", `
		create(ln = "room"; ll = "corridor");
		hop(ll = "corridor");       // back to init
		delete(ll = "corridor");    // removes corridor; room becomes a singleton
		node.done = 1;
	`)
	if err := sys.Inject(0, "deleter", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	// The Messenger ends up in the room node just before it is deleted
	// with its last link... per delete semantics the Messenger moves to
	// the room and the corridor is gone.
	total := 0
	for d := 0; d < 2; d++ {
		total += nodeCount(sys.Daemon(d).Store())
	}
	if total != 2 { // only the two init nodes survive
		t.Errorf("%d nodes remain, want 2 (room deleted as singleton)", total)
	}
	if st := sys.TotalStats(); st.Deletes == 0 {
		t.Error("no link deletions recorded")
	}
}

func TestNativeFunctions(t *testing.T) {
	k, sys := simSystem(t, 1)
	calls := 0
	sys.RegisterNative("double", func(ctx *NativeCtx, args []value.Value) (value.Value, error) {
		calls++
		ctx.Charge(100 * sim.Microsecond)
		if ctx.DaemonID() != 0 {
			t.Error("ctx daemon info wrong")
		}
		if ctx.Model() == nil {
			t.Error("sim engine should expose a cost model")
		}
		if ctx.HostSpec().Name != lan.SPARC110.Name {
			t.Errorf("host spec = %v", ctx.HostSpec())
		}
		ctx.SetNodeVar("native_was_here", value.Int(1))
		return value.Int(args[0].AsInt() * 2), nil
	})
	register(t, sys, "calls", `x = double(21); node.result = x;`)
	if err := sys.Inject(0, "calls", nil); err != nil {
		t.Fatal(err)
	}
	end := runSim(t, k, sys)
	if calls != 1 {
		t.Errorf("native called %d times", calls)
	}
	init := sys.Daemon(0).Store().Init()
	if init.Vars["result"].AsInt() != 42 || init.Vars["native_was_here"].AsInt() != 1 {
		t.Errorf("vars = %v", init.Vars)
	}
	if end < 100*sim.Microsecond {
		t.Errorf("charged native cost not reflected in sim time: %v", end)
	}
}

func TestUnknownNativeDestroysMessenger(t *testing.T) {
	k, sys := simSystem(t, 1)
	register(t, sys, "bad", `x = no_such_native();`)
	if err := sys.Inject(0, "bad", nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if errs := sys.Errors(); len(errs) != 1 || !strings.Contains(errs[0].Error(), "unknown native") {
		t.Errorf("errors = %v", errs)
	}
	if sys.Live() != 0 {
		t.Error("failed messenger still counted live")
	}
}

func TestRuntimeErrorRecorded(t *testing.T) {
	k, sys := simSystem(t, 1)
	register(t, sys, "div", `x = 1 / 0;`)
	if err := sys.Inject(0, "div", nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if errs := sys.Errors(); len(errs) != 1 || !strings.Contains(errs[0].Error(), "division by zero") {
		t.Errorf("errors = %v", errs)
	}
}

// TestErrorsKeepTheLast64: a program that fails every time it runs, as a
// tenant's might under msgrd -serve, leaves the newest 64 errors and counts
// every one.
func TestErrorsKeepTheLast64(t *testing.T) {
	k, sys := simSystem(t, 1)
	register(t, sys, "div", `x = 1 / z;`)
	for i := 0; i < 192; i++ {
		if err := sys.Inject(0, "div", map[string]value.Value{"z": value.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if errs := sys.Errors(); len(errs) != 64 {
		t.Errorf("kept %d errors, want the last 64", len(errs))
	}
	if got := sys.TotalStats().Errors; got != 192 {
		t.Errorf("Stats.Errors = %d, want 192", got)
	}
}

func TestInjectionVariables(t *testing.T) {
	k, sys := simSystem(t, 1)
	register(t, sys, "param", `node.sum = a + b;`)
	err := sys.Inject(0, "param", map[string]value.Value{
		"a": value.Int(40), "b": value.Int(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	if v := sys.Daemon(0).Store().Init().Vars["sum"]; v.AsInt() != 42 {
		t.Errorf("sum = %v", v)
	}
}

// TestFigure3ManagerWorker runs the paper's Figure 3 program: a single
// script whose replicas become self-coordinating workers, with the task
// pool and result deposit held in node variables of the central init node.
func TestFigure3ManagerWorker(t *testing.T) {
	const nDaemons = 5
	const nTasks = 23
	k, sys := simSystem(t, nDaemons)

	sys.RegisterNative("next_task", func(ctx *NativeCtx, _ []value.Value) (value.Value, error) {
		next := ctx.NodeVar("next").AsInt()
		if next >= nTasks {
			return value.Nil(), nil
		}
		ctx.SetNodeVar("next", value.Int(next+1))
		return value.Int(next), nil
	})
	sys.RegisterNative("compute", func(ctx *NativeCtx, args []value.Value) (value.Value, error) {
		ctx.Charge(1 * sim.Millisecond)
		return value.Int(args[0].AsInt() * args[0].AsInt()), nil
	})
	sys.RegisterNative("deposit", func(ctx *NativeCtx, args []value.Value) (value.Value, error) {
		ctx.SetNodeVar("acc", value.Int(ctx.NodeVar("acc").AsInt()+args[0].AsInt()))
		ctx.SetNodeVar("count", value.Int(ctx.NodeVar("count").AsInt()+1))
		return value.Nil(), nil
	})

	register(t, sys, "manager_worker", `
		create(ALL);
		hop(ll = $last);
		while ((task = next_task()) != nil) {
			hop(ll = $last);
			res = compute(task);
			hop(ll = $last);
			deposit(res);
		}
	`)
	if err := sys.Inject(0, "manager_worker", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)

	init := sys.Daemon(0).Store().Init()
	wantSum := int64(0)
	for i := int64(0); i < nTasks; i++ {
		wantSum += i * i
	}
	if got := init.Vars["acc"].AsInt(); got != wantSum {
		t.Errorf("sum of squares = %d, want %d", got, wantSum)
	}
	if got := init.Vars["count"].AsInt(); got != nTasks {
		t.Errorf("deposited %d results, want %d", got, nTasks)
	}
	if got := init.Vars["next"].AsInt(); got != nTasks {
		t.Errorf("tasks handed out = %d", got)
	}
	st := sys.TotalStats()
	if st.Finished != nDaemons-1 {
		t.Errorf("workers finished = %d, want %d", st.Finished, nDaemons-1)
	}
}

func TestSimIsDeterministic(t *testing.T) {
	run := func() (sim.Time, Stats, []string) {
		k, sys := simSystem(t, 4)
		sys.RegisterNative("work", func(ctx *NativeCtx, args []value.Value) (value.Value, error) {
			ctx.Charge(sim.Time(args[0].AsInt()) * sim.Microsecond)
			return value.Nil(), nil
		})
		register(t, sys, "det", `
			create(ALL);
			work($daemon * 100 + 50);
			hop(ll = $last);
			node.done = node.done + 1;
			print("done", $daemon);
		`)
		if err := sys.Inject(0, "det", nil); err != nil {
			t.Fatal(err)
		}
		end := runSim(t, k, sys)
		return end, sys.TotalStats(), sys.Output()
	}
	t1, s1, o1 := run()
	for i := 0; i < 5; i++ {
		t2, s2, o2 := run()
		if t1 != t2 || s1 != s2 {
			t.Fatalf("nondeterministic: %v/%+v vs %v/%+v", t1, s1, t2, s2)
		}
		if fmt.Sprint(o1) != fmt.Sprint(o2) {
			t.Fatalf("nondeterministic output: %v vs %v", o1, o2)
		}
	}
}

func TestBuildNetworkAndVirtualHop(t *testing.T) {
	k, sys := simSystem(t, 3)
	spec := NetSpec{
		Nodes: []NetNode{
			{Name: "a", Daemon: 0}, {Name: "b", Daemon: 1}, {Name: "c", Daemon: 2},
		},
		Links: []NetLink{
			{A: "a", B: "b", Name: "ab", Dir: 1},
			{A: "b", B: "c", Name: "bc", Dir: 1},
		},
	}
	if err := sys.BuildNetwork(spec); err != nil {
		t.Fatal(err)
	}
	register(t, sys, "walk", `
		hop(ll = "ab", ldir = +);
		node.visited = node.visited + 1;
		hop(ll = "bc", ldir = +);
		node.visited = node.visited + 1;
		hop(ln = "init", ll = virtual);
		node.home = 1;
	`)
	if err := sys.InjectAt(0, "walk", "a", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	if vars, ok := sys.ReadNodeVars(1, "b"); !ok || vars["visited"].AsInt() != 1 {
		t.Errorf("b not visited: %v", vars)
	}
	if vars, ok := sys.ReadNodeVars(2, "c"); !ok || vars["visited"].AsInt() != 1 {
		t.Errorf("c not visited: %v", vars)
	}
	// Virtual hop lands at daemon 2's local init.
	if v := sys.Daemon(2).Store().Init().Vars["home"]; v.AsInt() != 1 {
		t.Errorf("virtual hop to init failed: %v", v)
	}
}

func TestBuildNetworkValidation(t *testing.T) {
	_, sys := simSystem(t, 1)
	if err := sys.BuildNetwork(NetSpec{Nodes: []NetNode{{Name: "x", Daemon: 5}}}); err == nil {
		t.Error("bad daemon should fail")
	}
	if err := sys.BuildNetwork(NetSpec{Nodes: []NetNode{{Name: "x"}, {Name: "x"}}}); err == nil {
		t.Error("duplicate names should fail")
	}
	if err := sys.BuildNetwork(NetSpec{Links: []NetLink{{A: "p", B: "q"}}}); err == nil {
		t.Error("unknown link endpoints should fail")
	}
}

func TestDirectedRingTraversal(t *testing.T) {
	// A 4-daemon directed ring in the logical network: a Messenger walks
	// forward around it exactly once.
	const n = 4
	k, sys := simSystem(t, n)
	spec := NetSpec{}
	for i := 0; i < n; i++ {
		spec.Nodes = append(spec.Nodes, NetNode{Name: fmt.Sprintf("r%d", i), Daemon: i})
	}
	for i := 0; i < n; i++ {
		spec.Links = append(spec.Links, NetLink{
			A: fmt.Sprintf("r%d", i), B: fmt.Sprintf("r%d", (i+1)%n), Name: "ring", Dir: 1,
		})
	}
	if err := sys.BuildNetwork(spec); err != nil {
		t.Fatal(err)
	}
	register(t, sys, "rover", `
		for (i = 0; i < 4; i++) {
			node.hits = node.hits + 1;
			hop(ll = "ring", ldir = +);
		}
	`)
	if err := sys.InjectAt(0, "rover", "r0", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	for i := 0; i < n; i++ {
		vars, ok := sys.ReadNodeVars(i, fmt.Sprintf("r%d", i))
		if !ok || vars["hits"].AsInt() != 1 {
			t.Errorf("r%d hits = %v", i, vars["hits"])
		}
	}
}
