package logical

import (
	"testing"

	"messengers/internal/value"
)

func TestNewStoreHasInit(t *testing.T) {
	s := NewStore(3)
	if s.daemon != 3 {
		t.Errorf("daemon = %d", s.daemon)
	}
	if s.Init() == nil || s.Init().Name != InitName {
		t.Fatalf("init node = %+v", s.Init())
	}
	if len(s.nodes) != 1 {
		t.Errorf("nodes = %d", len(s.nodes))
	}
	if got := s.FindByName("init"); len(got) != 1 || got[0] != s.Init() {
		t.Errorf("FindByName(init) = %v", got)
	}
}

func TestCreateAndLookup(t *testing.T) {
	s := NewStore(0)
	a := s.CreateNode("a")
	anon := s.CreateNode("~")
	if anon.Name != "" {
		t.Errorf("unnamed node has name %q", anon.Name)
	}
	if n, ok := s.Node(a.ID); !ok || n != a {
		t.Error("Node lookup failed")
	}
	if got := s.Addr(a); got != (Addr{Daemon: 0, Node: a.ID}) {
		t.Errorf("Addr = %v", got)
	}
	a.Vars["x"] = value.Int(1)
	if a.Vars["x"].AsInt() != 1 {
		t.Error("node vars broken")
	}
}

func TestLinkLocalAndMatch(t *testing.T) {
	s := NewStore(0)
	c := s.CreateNode("c")
	a := s.CreateNode("a")
	b := s.CreateNode("b")
	s.LinkLocal(c, a, "x", false)
	s.LinkLocal(c, b, "y", true) // directed c -> b

	// hop(ll = x): only link x.
	ms := s.Match(c, Any, "x", Any)
	if len(ms) != 1 || ms[0].Dest != s.Addr(a) || ms[0].Via != "x" {
		t.Errorf("Match(ll=x) = %+v", ms)
	}
	// hop(): all neighbors.
	if ms := s.Match(c, Any, Any, Any); len(ms) != 2 {
		t.Errorf("Match(any) = %d matches", len(ms))
	}
	// hop(ldir = +): only the directed link, from c.
	ms = s.Match(c, Any, Any, "+")
	if len(ms) != 1 || ms[0].Dest != s.Addr(b) {
		t.Errorf("Match(+) = %+v", ms)
	}
	// From b, the directed link is incoming: "+" fails, "-" matches.
	if ms := s.Match(b, Any, Any, "+"); len(ms) != 0 {
		t.Errorf("Match(+ from b) = %+v", ms)
	}
	ms = s.Match(b, Any, Any, "-")
	if len(ms) != 1 || ms[0].Dest != s.Addr(c) {
		t.Errorf("Match(- from b) = %+v", ms)
	}
	// ln filtering.
	ms = s.Match(c, "a", Any, Any)
	if len(ms) != 1 || ms[0].Dest != s.Addr(a) {
		t.Errorf("Match(ln=a) = %+v", ms)
	}
	if ms := s.Match(c, "zzz", Any, Any); len(ms) != 0 {
		t.Errorf("Match(ln=zzz) = %+v", ms)
	}
}

func TestMatchUnnamed(t *testing.T) {
	s := NewStore(0)
	c := s.CreateNode("c")
	anon := s.CreateNode("")
	named := s.CreateNode("n")
	s.LinkLocal(c, anon, "", false)
	s.LinkLocal(c, named, "ell", false)

	// ll = "~" matches only the unnamed link.
	ms := s.Match(c, Any, Unnamed, Any)
	if len(ms) != 1 || ms[0].Dest != s.Addr(anon) {
		t.Errorf("Match(ll=~) = %+v", ms)
	}
	// ln = "~" matches only the unnamed peer.
	ms = s.Match(c, Unnamed, Any, Any)
	if len(ms) != 1 || ms[0].Dest != s.Addr(anon) {
		t.Errorf("Match(ln=~) = %+v", ms)
	}
}

// TestLastNameIsRefName: the $last a half-link hands out is RefName of its
// identity and name, for named links, unnamed ones and "~"-named ones, and
// an unnamed link's reference matches back as an ll pattern.
func TestLastNameIsRefName(t *testing.T) {
	s := NewStore(3)
	c := s.CreateNode("c")
	for _, name := range []string{"ell", "", Unnamed} {
		id := s.LinkLocal(c, s.CreateNode("p"), name, false)
		h, _ := FindLink(c, id)
		if got, want := LastName(h), RefName(id, name); got != want {
			t.Errorf("link %q: LastName = %q, RefName = %q", name, got, want)
		}
		if ms := s.Match(c, Any, LastName(h), Any); len(ms) != 1 || ms[0].Link != h || ms[0].Via != LastName(h) {
			t.Errorf("link %q: Match(ll=%q) = %+v", name, LastName(h), ms)
		}
	}
	if got := RefName(LinkID{Daemon: 3, Seq: 2}, ""); got != "#link:3:2" {
		t.Errorf("unnamed RefName = %q", got)
	}
}

func TestMatchVirtual(t *testing.T) {
	s := NewStore(0)
	target := s.CreateNode("target")
	c := s.CreateNode("c")
	ms := s.Match(c, "target", Virtual, Any)
	if len(ms) != 1 || ms[0].Dest != s.Addr(target) || ms[0].Via != Virtual {
		t.Errorf("virtual match = %+v", ms)
	}
	if ms := s.Match(c, "nope", Virtual, Any); len(ms) != 0 {
		t.Errorf("virtual to unknown = %+v", ms)
	}
	// Virtual jump to init works from anywhere.
	if ms := s.Match(c, "init", Virtual, Any); len(ms) != 1 {
		t.Errorf("virtual to init = %+v", ms)
	}
}

func TestMultipleParallelLinksYieldMultipleMatches(t *testing.T) {
	s := NewStore(0)
	c := s.CreateNode("c")
	d := s.CreateNode("d")
	s.LinkLocal(c, d, "p", false)
	s.LinkLocal(c, d, "q", false)
	if ms := s.Match(c, Any, Any, Any); len(ms) != 2 {
		t.Errorf("parallel links: %d matches, want 2 (one replica per link)", len(ms))
	}
}

func TestDetachHalfAndSingletonRemoval(t *testing.T) {
	s := NewStore(0)
	c := s.CreateNode("c")
	d := s.CreateNode("d")
	id := s.LinkLocal(c, d, "x", false)
	s.LinkLocal(c, s.Init(), "toinit", false)

	if removed := s.DetachHalf(d, id); !removed {
		t.Error("d should be removed as a singleton")
	}
	if _, ok := s.Node(d.ID); ok {
		t.Error("d still resident")
	}
	if removed := s.DetachHalf(c, id); removed {
		t.Error("c still has a link; must not be removed")
	}
	if len(c.Links) != 1 {
		t.Errorf("c links = %d", len(c.Links))
	}
}

func TestInitIsNeverRemoved(t *testing.T) {
	s := NewStore(0)
	c := s.CreateNode("c")
	id := s.LinkLocal(s.Init(), c, "x", false)
	if removed := s.DetachHalf(s.Init(), id); removed {
		t.Error("init must never be removed")
	}
	if _, ok := s.Node(s.Init().ID); !ok {
		t.Error("init vanished")
	}
}

func TestCrossDaemonHalfLinks(t *testing.T) {
	s0, s1 := NewStore(0), NewStore(1)
	a := s0.CreateNode("a")
	b := s1.CreateNode("b")
	id := s0.NewLinkID()
	s0.AttachHalf(a, id, "wan", true, true, s1.Addr(b), "b")
	s1.AttachHalf(b, id, "wan", true, false, s0.Addr(a), "a")

	ms := s0.Match(a, "b", "wan", "+")
	if len(ms) != 1 || ms[0].Dest != (Addr{Daemon: 1, Node: b.ID}) {
		t.Errorf("cross-daemon match = %+v", ms)
	}
	ms = s1.Match(b, Any, Any, "-")
	if len(ms) != 1 || ms[0].Dest.Daemon != 0 {
		t.Errorf("reverse match = %+v", ms)
	}
	if h, ok := FindLink(a, id); !ok || h.Peer.Daemon != 1 {
		t.Errorf("FindLink = %+v, %v", h, ok)
	}
	if _, ok := FindLink(a, LinkID{Daemon: 9, Seq: 9}); ok {
		t.Error("FindLink of unknown id should fail")
	}
}

func TestFindByNameOrderAndAddrString(t *testing.T) {
	s := NewStore(0)
	first := s.CreateNode("w")
	second := s.CreateNode("w")
	got := s.FindByName("w")
	if len(got) != 2 || got[0] != first || got[1] != second {
		t.Errorf("FindByName order wrong: %v", got)
	}
	if s.Addr(first).String() == "" {
		t.Error("Addr.String empty")
	}
}

// TestOrphansAndAdopt: when a daemon dies, Orphans finds the remote nodes
// the survivors still link to, and Adopt heals each cut by rewiring the
// dangling half-links onto a local replacement with proper mirror halves.
func TestOrphansAndAdopt(t *testing.T) {
	s := NewStore(0)
	a := s.CreateNode("a")
	b := s.CreateNode("b")
	// a and b each link to the same remote node on daemon 1; a also links
	// to a second remote node, directed a -> remote.
	remote1 := Addr{Daemon: 1, Node: 4}
	remote2 := Addr{Daemon: 1, Node: 9}
	other := Addr{Daemon: 2, Node: 3}
	s.AttachHalf(a, LinkID{Daemon: 0, Seq: 1}, "l1", false, false, remote1, "w")
	s.AttachHalf(b, LinkID{Daemon: 0, Seq: 2}, "l2", false, false, remote1, "w")
	s.AttachHalf(a, LinkID{Daemon: 0, Seq: 3}, "l3", true, true, remote2, "v")
	s.AttachHalf(b, LinkID{Daemon: 0, Seq: 4}, "l4", false, false, other, "z")
	// A placeholder peer (node 0) is a pending remote create, not an orphan.
	s.AttachHalf(a, LinkID{Daemon: 0, Seq: 5}, "l5", false, false, Addr{Daemon: 1, Node: 0}, "")

	orphans := s.Orphans(1)
	if len(orphans) != 2 || orphans[0] != remote1 || orphans[1] != remote2 {
		t.Fatalf("Orphans = %v, want [%v %v]", orphans, remote1, remote2)
	}
	if got := s.Orphans(2); len(got) != 1 || got[0] != other {
		t.Errorf("Orphans(2) = %v", got)
	}

	n1 := s.Adopt(remote1)
	if n1.Name != "w" {
		t.Errorf("replacement name = %q, want cached peer name w", n1.Name)
	}
	// Both dangling halves now point at the replacement, and the
	// replacement carries matching mirror halves back.
	for _, h := range []*HalfLink{a.Links[0], b.Links[0]} {
		if h.Peer != s.Addr(n1) {
			t.Errorf("half %q still points at %v", h.Name, h.Peer)
		}
	}
	if len(n1.Links) != 2 {
		t.Fatalf("replacement has %d halves, want 2", len(n1.Links))
	}
	if n1.Links[0].Peer != s.Addr(a) || n1.Links[1].Peer != s.Addr(b) {
		t.Errorf("mirror peers = %v, %v", n1.Links[0].Peer, n1.Links[1].Peer)
	}
	// Navigation works across the healed link in both directions.
	if ms := s.Match(a, "w", "l1", Any); len(ms) != 1 || ms[0].Dest != s.Addr(n1) {
		t.Errorf("match to replacement = %+v", ms)
	}
	if ms := s.Match(n1, "a", "l1", Any); len(ms) != 1 || ms[0].Dest != s.Addr(a) {
		t.Errorf("match back = %+v", ms)
	}

	// Directed links keep their orientation: a -> remote2 becomes a -> n2,
	// whose mirror half is incoming.
	n2 := s.Adopt(remote2)
	if got := a.Links[1].Peer; got != s.Addr(n2) {
		t.Errorf("directed half points at %v", got)
	}
	if h := n2.Links[0]; !h.Directed || h.Outgoing {
		t.Errorf("mirror of outgoing directed half = %+v, want incoming", h)
	}
	if ms := s.Match(a, "v", "l3", "+"); len(ms) != 1 {
		t.Errorf("directed match after adoption = %+v", ms)
	}
}

// LinkLocal creates a complete link between two nodes resident on this
// daemon. If directed, the direction is a -> b.
func (s *Store) LinkLocal(a, b *Node, name string, directed bool) LinkID {
	id := s.NewLinkID()
	s.AttachHalf(a, id, name, directed, true, s.Addr(b), b.Name)
	s.AttachHalf(b, id, name, directed, false, s.Addr(a), a.Name)
	return id
}
