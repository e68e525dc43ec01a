// Package logical implements the per-daemon store of the logical network —
// the application-created graph of nodes and links that Messengers navigate
// (the paper's middle abstraction: physical network, daemon network, logical
// network).
//
// The logical network is the "exogenous skeleton" of a MESSENGERS
// application: it persists independently of any Messenger, nodes carry
// shared node variables, and links (possibly directed, possibly crossing
// daemons) are what hop/create/delete destination specifications match
// against.
package logical

import (
	"fmt"
	"strings"

	"messengers/internal/value"
)

// Wildcards and specials of the navigational calculus.
const (
	// Any matches any name ("*").
	Any = "*"
	// Unnamed denotes an unnamed node or link ("~").
	Unnamed = "~"
	// Virtual is the virtual-link name: a direct jump to the node named in
	// ln, resolved against this daemon's node table (plus the well-known
	// init node).
	Virtual = "#virtual"
	// InitName is the name of the distinguished node created on every
	// daemon at startup.
	InitName = "init"
)

// NodeID identifies a node within its daemon.
type NodeID uint64

// LinkID globally identifies a link: the daemon that created it plus a
// per-daemon sequence number. Both half-links of one logical link share the
// same LinkID.
type LinkID struct {
	Daemon int
	Seq    uint64
}

// Addr globally addresses a logical node.
type Addr struct {
	Daemon int
	Node   NodeID
}

// String renders daemon:node.
func (a Addr) String() string { return fmt.Sprintf("%d:%d", a.Daemon, a.Node) }

// HalfLink is one endpoint's view of a link.
type HalfLink struct {
	ID       LinkID
	Name     string // "" when unnamed
	Directed bool
	// Outgoing reports whether the link's direction points away from this
	// endpoint (meaningful only when Directed).
	Outgoing bool
	// Peer is the node at the other end (possibly on another daemon).
	Peer Addr
	// PeerName caches the peer's node name so matching ln does not need a
	// remote lookup.
	PeerName string
	// last is RefName(ID, Name), formatted once by AttachHalf: Match
	// hands it to every Messenger that takes this link.
	last string
}

// Node is one logical node resident on this daemon.
type Node struct {
	ID    NodeID
	Name  string // "" when unnamed
	Vars  map[string]value.Value
	Links []*HalfLink
}

// matchName reports the name used in ln matching ("~" semantics: unnamed
// nodes match Unnamed and Any only).
func matchName(pattern, name string) bool {
	switch pattern {
	case Any:
		return true
	case Unnamed:
		return name == ""
	default:
		return pattern == name
	}
}

// linkRefPrefix marks a link-identity reference. $last must identify the
// specific link a Messenger entered by — the paper's Fig. 3 hops back and
// forth over the one link create(ALL) made, which only works if an unnamed
// link's $last is unambiguous. Named links expose their name; unnamed links
// expose an identity reference.
const linkRefPrefix = "#link:"

// LastName is the $last value for traversing half-link h: its name, or an
// identity reference when unnamed.
func LastName(h *HalfLink) string { return h.last }

// RefName computes the $last value for a link given its identity and name.
func RefName(id LinkID, name string) string {
	if name != "" && name != Unnamed {
		return name
	}
	return fmt.Sprintf("%s%d:%d", linkRefPrefix, id.Daemon, id.Seq)
}

// matchLink checks an ll pattern against a half-link, including identity
// references produced by LastName.
func matchLink(pattern string, h *HalfLink) bool {
	if strings.HasPrefix(pattern, linkRefPrefix) {
		return LastName(h) == pattern
	}
	return matchName(pattern, h.Name)
}

// matchDir checks a direction specification against a half-link.
// "+" follows the link's direction (the link leaves this node), "-" goes
// against it, "*" matches anything including undirected links. Undirected
// links match only "*" and "~".
func matchDir(dir string, l *HalfLink) bool {
	switch dir {
	case Any, Unnamed:
		return true
	case "+":
		return l.Directed && l.Outgoing
	case "-":
		return l.Directed && !l.Outgoing
	default:
		return false
	}
}

// Match is one destination produced by resolving a hop/delete spec.
type Match struct {
	// Link is the half-link traversed (nil for virtual jumps).
	Link *HalfLink
	// Dest is the destination node address.
	Dest Addr
	// Via is the link name to expose as $last at the destination.
	Via string
}

// Store is one daemon's slice of the logical network.
type Store struct {
	daemon  int
	nextID  NodeID
	nextSeq uint64
	nodes   map[NodeID]*Node
	init    *Node
}

// NewStore creates the store with its init node.
func NewStore(daemon int) *Store {
	s := &Store{daemon: daemon, nodes: map[NodeID]*Node{}}
	s.init = s.CreateNode(InitName)
	return s
}

// Init returns the daemon's init node.
func (s *Store) Init() *Node { return s.init }

// Node returns the resident node with the given ID.
func (s *Store) Node(id NodeID) (*Node, bool) {
	n, ok := s.nodes[id]
	return n, ok
}

// Addr returns the global address of a resident node.
func (s *Store) Addr(n *Node) Addr { return Addr{Daemon: s.daemon, Node: n.ID} }

// CreateNode adds a node (name may be empty / Unnamed for an anonymous
// node).
func (s *Store) CreateNode(name string) *Node {
	if name == Unnamed {
		name = ""
	}
	s.nextID++
	n := &Node{ID: s.nextID, Name: name, Vars: map[string]value.Value{}}
	s.nodes[n.ID] = n
	return n
}

// FindByName returns resident nodes with the given name, in creation order.
func (s *Store) FindByName(name string) []*Node {
	var out []*Node
	for id := NodeID(1); id <= s.nextID; id++ {
		if n, ok := s.nodes[id]; ok && n.Name == name {
			out = append(out, n)
		}
	}
	return out
}

// NewLinkID allocates a link identity originating at this daemon.
func (s *Store) NewLinkID() LinkID {
	s.nextSeq++
	return LinkID{Daemon: s.daemon, Seq: s.nextSeq}
}

// AttachHalf installs one endpoint of a link at a resident node.
func (s *Store) AttachHalf(n *Node, id LinkID, name string, directed, outgoing bool, peer Addr, peerName string) *HalfLink {
	if name == Unnamed {
		name = ""
	}
	if peerName == Unnamed {
		peerName = ""
	}
	h := &HalfLink{ID: id, Name: name, Directed: directed, Outgoing: outgoing, Peer: peer, PeerName: peerName,
		last: RefName(id, name)}
	n.Links = append(n.Links, h)
	return h
}

// DetachHalf removes the endpoint of link id from node n. It reports
// whether the node became a singleton and was removed (init is exempt, per
// the paper the logical network persists but a deleted node's corpse does
// not).
func (s *Store) DetachHalf(n *Node, id LinkID) bool {
	for i, h := range n.Links {
		if h.ID == id {
			n.Links = append(n.Links[:i], n.Links[i+1:]...)
			break
		}
	}
	if len(n.Links) == 0 && n != s.init {
		delete(s.nodes, n.ID)
		return true
	}
	return false
}

// Match resolves a hop/delete destination specification (ln, ll, ldir) from
// node c: every half-link of c whose link name matches ll, direction
// matches ldir, and peer node name matches ln yields one Match (one
// Messenger replica per matching link, each entering via that link).
//
// A Virtual ll ignores the links entirely and jumps directly to resident
// nodes named ln.
func (s *Store) Match(c *Node, ln, ll, ldir string) []Match {
	if ll == Virtual {
		var out []Match
		for _, n := range s.FindByName(ln) {
			out = append(out, Match{Dest: s.Addr(n), Via: Virtual})
		}
		return out
	}
	var out []Match
	for _, h := range c.Links {
		if !matchLink(ll, h) || !matchDir(ldir, h) || !matchName(ln, h.PeerName) {
			continue
		}
		out = append(out, Match{Link: h, Dest: h.Peer, Via: LastName(h)})
	}
	return out
}

// FindLink returns node n's half-link with the given ID.
func FindLink(n *Node, id LinkID) (*HalfLink, bool) {
	for _, h := range n.Links {
		if h.ID == id {
			return h, true
		}
	}
	return nil, false
}

// --- logical-network healing (daemon-death recovery) ---

// Orphans returns the distinct remote node addresses on the dead daemon
// that some resident node still links to, in deterministic (node-creation,
// link-attachment) order. Placeholder peers (node 0: a remote create whose
// ack has not landed) are skipped — the pending create itself is respawned
// by the recovery layer.
func (s *Store) Orphans(dead int) []Addr {
	var out []Addr
	seen := map[Addr]struct{}{}
	for id := NodeID(1); id <= s.nextID; id++ {
		n, ok := s.nodes[id]
		if !ok {
			continue
		}
		for _, h := range n.Links {
			if h.Peer.Daemon != dead || h.Peer.Node == 0 {
				continue
			}
			if _, dup := seen[h.Peer]; dup {
				continue
			}
			seen[h.Peer] = struct{}{}
			out = append(out, h.Peer)
		}
	}
	return out
}

// Adopt heals the cut left by a dead daemon: it creates a local replacement
// for the orphaned remote node and rewires every resident half-link that
// pointed at the orphan to point at the replacement, attaching the mirror
// halves so the replacement is a full participant of the logical network.
// The replacement inherits the orphan's name (as cached in PeerName) but
// not its variables — those died with the daemon.
func (s *Store) Adopt(orphan Addr) *Node {
	var name string
	type rewire struct {
		owner *Node
		half  *HalfLink
	}
	var cut []rewire
	for id := NodeID(1); id <= s.nextID; id++ {
		n, ok := s.nodes[id]
		if !ok {
			continue
		}
		for _, h := range n.Links {
			if h.Peer == orphan {
				if name == "" {
					name = h.PeerName
				}
				cut = append(cut, rewire{owner: n, half: h})
			}
		}
	}
	nn := s.CreateNode(name)
	addr := s.Addr(nn)
	for _, rw := range cut {
		rw.half.Peer = addr
		// The mirror half points back with the opposite orientation.
		s.AttachHalf(nn, rw.half.ID, rw.half.Name, rw.half.Directed,
			rw.half.Directed && !rw.half.Outgoing, s.Addr(rw.owner), rw.owner.Name)
	}
	return nn
}
