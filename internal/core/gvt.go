package core

import (
	"math"
	"sync/atomic"

	"messengers/internal/obs"
	"messengers/internal/sim"
)

// gvtInitiator runs the paper's conservative global-virtual-time rounds
// from daemon 0. A round is a reduction wave that gathers every daemon's
// local minimum (earliest suspended wake-up ∧ runnable LVTs) and its
// cumulative sent/received Messenger counts, then the commit rule over the
// result: the books must balance (no Messenger in transit anywhere, so no
// unobservable virtual time) and the minimum must exceed the installed GVT
// (recovery mode also re-commits an unchanged minimum, so a daemon that
// lost an advance catches up). Rounds run from the first MsgGVTNotify
// until a reduction finds nothing suspended anywhere.
//
// The waves come in two shapes; everything else exists once.
//
//	star (default): daemon 0 sends a MsgGVTQuery to every daemon, each
//	  answers with a MsgGVTReport, and a commit is one MsgGVTAdvance to
//	  each — 3 messages per daemon per round, all through daemon 0, the
//	  paper's acknowledged serialization point.
//	ring (WithDistributedGVT): a Mattern-style MsgGVTToken makes two trips
//	  around the daemon index ring. On pass 1 each daemon folds its minimum
//	  and counts into the token and forwards it; pass 2 carries the
//	  committed value, which each daemon installs and forwards. At most 2
//	  messages per daemon per round, neighbour to neighbour, O(1) of them
//	  through daemon 0.
//
// Both shapes decide from the same invariant and install through the same
// advanceGVT, so a deterministic sim run commits the identical GVT
// sequence under either, which the differential tests assert.
type gvtInitiator struct {
	d    *Daemon
	ring bool // the waves are ring tokens, not query/report stars

	polling bool  // rounds run until a reduction comes back +Inf
	epoch   int64 // round number; a wave of any other round is stale
	open    bool  // a wave of the current round is still out
	// wdBackoff is the current watchdog delay; it doubles every time a
	// round stalls and resets when one concludes, so a partitioned daemon
	// costs a geometrically thinning trickle of relaunches instead of a
	// steady storm.
	wdBackoff sim.Time
	roundFrom sim.Time     // engine clock at round launch (latency accounting)
	reports   map[int]*Msg // star: the open round's answers so far
}

// handleGVT routes a round's inbound traffic: to the initiator on daemon 0,
// and on every other daemon, which only ever sees the ring's token, to the
// participant's relay.
func (d *Daemon) handleGVT(msg *Msg) {
	switch {
	case d.initiator != nil:
		d.initiator.handle(msg)
	case msg.Kind == MsgGVTToken && d.sys.distGVT:
		d.relayToken(msg)
	}
}

func (g *gvtInitiator) handle(msg *Msg) {
	if msg.Kind == MsgGVTNotify {
		// Some daemon suspended a Messenger: poll until quiescence.
		if !g.polling {
			g.polling = true
			g.startRound()
		}
		return
	}
	// A wave coming home. One from a round the watchdog already relaunched,
	// or of the other shape, is dropped, so a relaunch never commits twice.
	if msg.GEpoch != g.epoch || !g.open || (msg.Kind == MsgGVTToken) != g.ring {
		return
	}
	if !g.ring {
		g.reports[msg.From] = msg
		if len(g.reports) < g.expect() {
			return
		}
	}
	g.open, g.wdBackoff = false, 0 // the wave is home; stalls start fresh
	switch {
	case !g.ring:
		var sent, recv int64
		min := math.Inf(1)
		//lint:maporder two sums and a minimum are order-independent
		for _, r := range g.reports {
			sent += r.GSent
			recv += r.GRecv
			if r.GMin < min {
				min = r.GMin
			}
		}
		g.reports = nil
		// The star's round is over with its reduction, whatever it found: an
		// advance is sent and forgotten.
		atomic.AddInt64((*int64)(&g.d.Stats.GVTRoundTime), int64(g.d.eng.Now()-g.roundFrom))
		g.conclude(min, sent, recv)
	case msg.GPass == 1:
		g.conclude(msg.GMin, msg.GSent, msg.GRecv)
	default:
		g.roundDone() // the commit wave has covered the ring
	}
}

// expect is the number of reports that concludes a star round: every daemon
// the initiator does not currently believe dead.
func (g *gvtInitiator) expect() int {
	n := g.d.eng.NumDaemons()
	if g.d.rec == nil {
		return n
	}
	for _, dead := range g.d.rec.peerDead {
		if dead {
			n--
		}
	}
	return n
}

// eachAlive sends one message built by mk to every daemon the initiator
// does not believe dead, itself first: the star's two fan-outs.
func (g *gvtInitiator) eachAlive(mk func() *Msg) {
	d := g.d
	for i := 0; i < d.eng.NumDaemons(); i++ {
		if d.rec == nil || i == d.id || !d.rec.peerDead[i] {
			d.sendGVT(i, mk())
		}
	}
}

// startRound launches a fresh reduction wave.
func (g *gvtInitiator) startRound() {
	d := g.d
	g.epoch++
	g.open = true
	g.roundFrom = d.eng.Now()
	atomic.AddInt64(&d.Stats.GVTRounds, 1)
	if d.tr != nil {
		d.tr.Instant(d.id, "gvt", "gvt.round", obs.I("epoch", g.epoch))
	}
	if g.ring {
		d.forwardToken(&Msg{Kind: MsgGVTToken, GPass: 1, GEpoch: g.epoch,
			GMin: d.localMin(), GSent: d.sent, GRecv: d.recv})
	} else {
		g.reports = make(map[int]*Msg, d.eng.NumDaemons())
		g.eachAlive(func() *Msg { return &Msg{Kind: MsgGVTQuery, From: d.id, GEpoch: g.epoch} })
	}
	g.armWatchdog()
}

// armWatchdog relaunches a round whose wave stalls — a message lost to the
// network, or a peer that died mid-round — so GVT synchronization survives
// message loss. Recovery mode only: fault-free runs must stay
// event-identical. The delay backs off exponentially (2× the round
// interval up to gvtMaxBackoff×) so a long partition does not generate a
// storm of relaunches against the unreachable daemon.
func (g *gvtInitiator) armWatchdog() {
	if g.d.rec == nil {
		return
	}
	g.wdBackoff = nextBackoff(g.wdBackoff, g.d.sys.gvtInterval)
	ep := g.epoch
	g.d.safeTimer(g.wdBackoff, func() {
		if g.epoch == ep && g.open {
			g.startRound()
		}
	})
}

// gvtMaxBackoff caps the stalled-round watchdog at 64× the base delay.
const gvtMaxBackoff = 64

// nextBackoff doubles a watchdog delay from a 2×interval floor, capped at
// gvtMaxBackoff times the floor.
func nextBackoff(cur, interval sim.Time) sim.Time {
	floor := 2 * interval
	if cur < floor {
		return floor
	}
	return min(cur*2, gvtMaxBackoff*floor)
}

// conclude applies the commit rule to a finished reduction: the global
// minimum and the summed transient counters.
func (g *gvtInitiator) conclude(min float64, sent, recv int64) {
	d := g.d
	switch {
	case sent != recv:
		// Messengers in transit: their virtual times are unobservable, so
		// the minimum is not yet safe. Retry soon.
		d.safeTimer(d.sys.gvtInterval/4+1, g.restart)
	case math.IsInf(min, 1):
		// Nothing is suspended anywhere: go quiet until the next notify.
		g.polling = false
	case min > d.gvt || (d.rec != nil && min >= d.gvt):
		// Recovery mode re-commits an unchanged minimum: a daemon that lost
		// the last advance would otherwise stay wedged at the old GVT.
		if d.om != nil {
			d.om.gvtCommits.Inc()
		}
		if !g.ring {
			g.eachAlive(func() *Msg { return &Msg{Kind: MsgGVTAdvance, From: d.id, GVT: min} })
			g.roundDone()
			return
		}
		// Install locally, then circulate the commit wave; the round is
		// open again, and watched, until it is home.
		d.advanceGVT(min)
		g.open = true
		d.forwardToken(&Msg{Kind: MsgGVTToken, GPass: 2, GEpoch: g.epoch, GVT: min})
		g.armWatchdog()
	default:
		g.roundDone()
	}
}

// roundDone paces the next round after one that ran its course. That is
// where a ring round is clocked: when its last token is home, and not at
// all if it ends unbalanced or quiescent.
func (g *gvtInitiator) roundDone() {
	if g.ring {
		atomic.AddInt64((*int64)(&g.d.Stats.GVTRoundTime), int64(g.d.eng.Now()-g.roundFrom))
	}
	g.d.safeTimer(g.d.sys.gvtInterval, g.restart)
}

// restart begins a new round if polling is still wanted.
func (g *gvtInitiator) restart() {
	if g.polling {
		g.startRound()
	}
}

// crashReset clears the initiator when its daemon crashes: the restarted
// daemon 0 resumes rounds on the next notify.
func (g *gvtInitiator) crashReset() {
	g.polling, g.open, g.wdBackoff, g.reports = false, false, 0, nil
}

// --- participants ---

// answerQuery is a star participant's part in a round: report the local
// minimum and the books.
func (d *Daemon) answerQuery(q *Msg) {
	d.sendGVT(q.From, &Msg{
		Kind:    MsgGVTReport,
		From:    d.id,
		GEpoch:  q.GEpoch,
		GMin:    d.localMin(),
		GSent:   d.sent,
		GRecv:   d.recv,
		GActive: int64(len(d.active)),
	})
}

// relayToken is a ring participant's part: fold into the reduction, or
// install the commit, and pass the token on.
func (d *Daemon) relayToken(tok *Msg) {
	if d.rec != nil && d.rec.peerDead[0] {
		// The initiator is (believed) dead: the token has nowhere to
		// terminate, so drop it — exactly as star rounds die with daemon 0.
		// A restarted daemon 0 resumes rounds on the next notify.
		return
	}
	switch tok.GPass {
	case 1:
		if m := d.localMin(); m < tok.GMin {
			tok.GMin = m
		}
		tok.GSent += d.sent
		tok.GRecv += d.recv
	case 2:
		d.advanceGVT(tok.GVT)
	}
	d.forwardToken(tok)
}

// forwardToken ships the token to the next daemon on the index ring,
// skipping peers this daemon currently believes dead (recovery mode). With
// every peer dead the ring degenerates to a self-round.
func (d *Daemon) forwardToken(tok *Msg) {
	if d.om != nil {
		d.om.gvtTokenHops.Inc()
	}
	succ := d.topo.RingSuccessor(d.id)
	for succ != d.id && d.rec != nil && d.rec.peerDead[succ] {
		succ = d.topo.RingSuccessor(succ)
	}
	tok.From = d.id
	d.sendGVT(succ, tok)
}
