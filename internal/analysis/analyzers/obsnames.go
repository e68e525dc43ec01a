package analyzers

import (
	"go/ast"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"messengers/internal/analysis"
)

// metricNameRE: dot-namespaced, lowercase — "hops.remote", "gvt.rounds".
var metricNameRE = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)+$`)

// metricNamespaces is the closed set of first segments a metric name may
// use. One namespace per subsystem keeps dashboards greppable; adding a
// subsystem means adding its namespace here (and documenting it in
// docs/OBSERVABILITY.md), not minting ad-hoc prefixes.
var metricNamespaces = map[string]bool{
	"bus":       true, // simulated Ethernet segment
	"daemon":    true, // daemon executor activity
	"faults":    true, // injected fault decisions
	"gvt":       true, // global virtual time protocol
	"host":      true, // per-host busy accounting (dynamic, suppressed)
	"hop":       true, // hop payload accounting
	"hops":      true, // navigation counts
	"logical":   true, // logical-network store
	"mandel":    true, // mandelbrot example app
	"msgr":      true, // Messenger lifecycle
	"net":       true, // inter-daemon traffic
	"proto":     true, // distributed-protocol chaos suite
	"pvm":       true, // message-passing comparison engine
	"serve":     true, // multi-tenant admission service
	"transport": true, // TCP transport internals
	"vm":        true, // MSL virtual machine
	"wire":      true, // serialization layer
}

// traceNameRE: trace categories and names; a single word is fine here
// ("hop", "msgr"), but the alphabet is the same.
var traceNameRE = regexp.MustCompile(`^[a-z0-9._]+$`)

// ObsNames keeps the observability namespace coherent: every metric or
// trace name passed to obs must be a string literal (so the namespace is
// greppable and the docs stay truthful), must match the lowercase
// dot-separated grammar, and a metric name must not be registered under
// two different kinds (a "hops.remote" counter in one file and gauge in
// another is almost certainly a bug). Dynamic names — the one legitimate
// case is per-host series like host.N.busy_ns — are suppressed with
// //lint:obsname.
var ObsNames = &analysis.Analyzer{
	Name: "obsnames",
	Doc:  "obs metric/trace names must be literal, lowercase, dot-namespaced, and kind-unique",
	Run:  runObsNames,
}

// obsNameKinds records, across the whole run, which kind each metric name
// was first registered under (stored in Pass.Shared).
type obsNameKinds map[string]string

func runObsNames(pass *analysis.Pass) error {
	kindsAny, ok := pass.Shared["obsnames"]
	if !ok {
		kindsAny = obsNameKinds{}
		pass.Shared["obsnames"] = kindsAny
	}
	kinds := kindsAny.(obsNameKinds)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := obsReceiver(pass, sel.X)
			switch {
			case recv == "Metrics":
				switch m := sel.Sel.Name; m {
				case "Counter", "Gauge", "Histogram":
					checkMetricName(pass, kinds, call, m, m)
				case "CounterFunc", "GaugeFunc":
					// A read function registers a counter or gauge.
					checkMetricName(pass, kinds, call, m, strings.TrimSuffix(m, "Func"))
				}
			case recv == "Tracer":
				switch sel.Sel.Name {
				case "Instant", "Span", "Counter":
					// (track, cat, name, ...)
					checkTraceArg(pass, call, 1, "category")
					checkTraceArg(pass, call, 2, "name")
				}
			}
			return true
		})
	}
	return nil
}

func checkMetricName(pass *analysis.Pass, kinds obsNameKinds, call *ast.CallExpr, method, kind string) {
	if len(call.Args) < 1 {
		return
	}
	name, lit, ok := literalString(call.Args[0])
	if !ok {
		pass.Reportf(call.Args[0].Pos(), "obsname",
			"metric name passed to Metrics.%s must be a string literal (dynamic names fragment the namespace)", method)
		return
	}
	if !metricNameRE.MatchString(name) {
		pass.Reportf(lit.Pos(), "obsname",
			"metric name %q must be lowercase dot-namespaced (%s)", name, metricNameRE)
		return
	}
	if ns := name[:strings.IndexByte(name, '.')]; !metricNamespaces[ns] {
		pass.Reportf(lit.Pos(), "obsname",
			"metric %q uses unknown namespace %q (register it in metricNamespaces)", name, ns)
		return
	}
	if prev, ok := kinds[name]; ok && prev != kind {
		pass.Reportf(lit.Pos(), "obsname",
			"metric %q registered as both %s and %s", name, prev, kind)
		return
	}
	kinds[name] = kind
}

func checkTraceArg(pass *analysis.Pass, call *ast.CallExpr, idx int, what string) {
	if len(call.Args) <= idx {
		return
	}
	arg := call.Args[idx]
	name, lit, ok := literalString(arg)
	if !ok {
		// Trace names may be computed from a literal-per-call-site helper
		// (msgrID); only flag direct dynamic construction like Sprintf.
		if isSprintfCall(pass, arg) {
			pass.Reportf(arg.Pos(), "obsname",
				"trace %s built with Sprintf; use a literal or a typed helper", what)
		}
		return
	}
	if !traceNameRE.MatchString(name) {
		pass.Reportf(lit.Pos(), "obsname",
			"trace %s %q must match %s", what, name, traceNameRE)
	}
}

// literalString unwraps a string literal (possibly parenthesized).
func literalString(e ast.Expr) (string, *ast.BasicLit, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind.String() != "STRING" {
		return "", nil, false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", nil, false
	}
	return s, lit, true
}

func isSprintfCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	obj := pass.CalleeObj(call)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" && obj.Name() == "Sprintf"
}

// obsReceiver returns "Metrics" or "Tracer" when e's type is (a pointer
// to) that obs type, else "".
func obsReceiver(pass *analysis.Pass, e ast.Expr) string {
	t := pass.TypeOf(e)
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "messengers/internal/obs" {
		return ""
	}
	switch obj.Name() {
	case "Metrics", "Tracer":
		return obj.Name()
	}
	return ""
}
