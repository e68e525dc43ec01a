// Package core implements the MESSENGERS runtime: daemons that receive,
// interpret, and forward autonomous Messengers over a logical network, the
// navigational semantics of hop/create/delete, injection, the shared script
// registry, and the conservative global-virtual-time synchronizer.
//
// The same daemon logic runs on two engines (see engine.go): a real
// concurrent engine (one goroutine per daemon, in-process channels or TCP)
// and a deterministic simulated engine used by the paper-reproduction
// benchmarks (hosts with modeled CPUs on a shared Ethernet).
package core

import (
	"fmt"

	"messengers/internal/value"
)

// DaemonEdge is one endpoint's view of a daemon-network link. The daemon
// network is the middle layer of the paper's three-level architecture; the
// dn/dl/ddir parts of a create specification match against it.
type DaemonEdge struct {
	To       int
	Name     string
	Directed bool
	Outgoing bool
}

// Topology is the daemon network: a graph over daemon IDs 0..N-1. Daemon i
// is addressable by name "d<i>".
type Topology struct {
	n   int
	adj [][]DaemonEdge
}

// NumDaemons returns the daemon count.
func (t *Topology) NumDaemons() int { return t.n }

// DaemonName returns the well-known name of daemon i.
func DaemonName(i int) string { return fmt.Sprintf("d%d", i) }

// NewTopology returns an edgeless daemon network of n daemons.
func NewTopology(n int) *Topology {
	if n <= 0 {
		panic(fmt.Sprintf("core: topology needs at least 1 daemon, got %d", n))
	}
	return &Topology{n: n, adj: make([][]DaemonEdge, n)}
}

// AddEdge links daemons a and b with an optionally named, optionally
// directed (a -> b) daemon link.
func (t *Topology) AddEdge(a, b int, name string, directed bool) {
	t.adj[a] = append(t.adj[a], DaemonEdge{To: b, Name: name, Directed: directed, Outgoing: true})
	t.adj[b] = append(t.adj[b], DaemonEdge{To: a, Name: name, Directed: directed, Outgoing: false})
}

// FullMesh returns the default daemon network: every pair connected by an
// unnamed undirected link (a LAN where every daemon can reach every other).
func FullMesh(n int) *Topology {
	t := NewTopology(n)
	for i := range t.adj {
		t.adj[i] = make([]DaemonEdge, 0, n-1) // every other daemon, once
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.AddEdge(i, j, "", false)
		}
	}
	return t
}

// Ring returns a ring of n daemons with edges named "ring", directed
// i -> (i+1) mod n.
func Ring(n int) *Topology {
	t := NewTopology(n)
	for i := 0; i < n; i++ {
		t.AddEdge(i, (i+1)%n, "ring", true)
	}
	return t
}

// Grid returns a rows x cols mesh with undirected edges named "ew"
// (east-west) and "ns" (north-south). Daemon (r, c) has ID r*cols + c.
func Grid(rows, cols int) *Topology {
	t := NewTopology(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				t.AddEdge(id(r, c), id(r, c+1), "ew", false)
			}
			if r+1 < rows {
				t.AddEdge(id(r, c), id(r+1, c), "ns", false)
			}
		}
	}
	return t
}

// Star returns a hub-and-spoke network: daemon 0 connected to all others by
// unnamed undirected links.
func Star(n int) *Topology {
	t := NewTopology(n)
	for i := 1; i < n; i++ {
		t.AddEdge(0, i, "", false)
	}
	return t
}

// RingSuccessor returns the daemon after i in the canonical index ring
// 0 → 1 → … → n-1 → 0. The distributed GVT token route is defined over
// this ring, independent of the application's daemon-link topology: every
// daemon set has it, and it visits each daemon exactly once per lap.
func (t *Topology) RingSuccessor(i int) int {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("core: ring successor of daemon %d in a %d-daemon topology", i, t.n))
	}
	return (i + 1) % t.n
}

// MatchDaemons resolves a daemon destination specification (dn, dl, ddir)
// from daemon `from`. dn may be "*", a daemon name ("d3"), or a numeric
// daemon ID; dl matches the daemon-link name ("*" any, "~" unnamed); ddir
// is "+", "-", or "*"/"~".
//
// Like the logical calculus, a specification with dl != "*" or ddir
// constraints matches along daemon links; the common case create(ALL) with
// all-default daemon parameters matches every neighboring daemon.
func (t *Topology) MatchDaemons(from int, dn, dl, ddir value.Value) []int {
	wantName := navString(dn)
	wantLink := navString(dl)
	wantDir := navString(ddir)
	seen := make(map[int]bool)
	var out []int
	for _, e := range t.adj[from] {
		if !matchPattern(wantLink, e.Name) {
			continue
		}
		switch wantDir {
		case "+":
			if !e.Directed || !e.Outgoing {
				continue
			}
		case "-":
			if !e.Directed || e.Outgoing {
				continue
			}
		}
		if !matchDaemonName(wantName, e.To) {
			continue
		}
		if !seen[e.To] {
			seen[e.To] = true
			out = append(out, e.To)
		}
	}
	return out
}

// matchDaemonName checks a dn pattern against daemon id.
func matchDaemonName(pattern string, id int) bool {
	switch pattern {
	case "*", "~":
		return true
	default:
		return pattern == DaemonName(id) || pattern == fmt.Sprintf("%d", id)
	}
}

// matchPattern is wildcard name matching shared with the logical calculus.
func matchPattern(pattern, name string) bool {
	switch pattern {
	case "*":
		return true
	case "~":
		return name == ""
	default:
		return pattern == name
	}
}

// navString renders a navigational-spec value as its matching string:
// strings pass through, integers become decimal, nil is the wildcard.
func navString(v value.Value) string {
	switch v.Kind() {
	case value.KindNil:
		return "*"
	case value.KindStr:
		return v.AsStr()
	default:
		return v.Format()
	}
}
