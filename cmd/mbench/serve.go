package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"messengers"
	"messengers/internal/serve"
	"messengers/internal/value"
)

// hogSrc is the mload runaway: only the per-session step budget stops it.
const hogSrc = `
	for (k = 0; k >= 0; k++) {
		x = x + 1;
	}
`

const (
	serveTenants = 4
	serveClients = 2 // closed loop: each has one session outstanding
	serveHops    = 4
	serveBudget  = 4096 // VM steps per session; a hog must not get past it
	serveWarm    = 1000 // cached sessions that end set-up
	// The mix, in percent. Cached walkers hit progCache. Fresh walkers carry
	// a source the server has not seen, so compile, verify, kind proof and
	// lowering run on the admission path, under the server lock every
	// cached submit also needs. Hogs exercise metering and eviction.
	mixCached, mixFresh = 90, 8
)

type sessKind int

const (
	kindCached sessKind = iota
	kindFresh
	kindHog
)

// done is one completion, stamped on the daemon executor that finished the
// session, which is where a session ends for its caller.
type done struct {
	comp serve.Completion
	at   time.Time
}

// serveSys is one set-up service with its books.
type serveSys struct {
	sys  *messengers.System
	srv  *serve.Server
	seed int64
	// ch[c] receives the completions of client c's tenants. A client has
	// one session outstanding, so one slot never blocks the executor.
	ch [serveClients]chan done

	mu     sync.Mutex
	visits int64 // hops of the walkers that ran to completion
}

func (s *serveSys) close() { s.sys.Close() }

func tenantID(i int) string { return fmt.Sprintf("t%d", i) }

// newServeSys is the set-up: TCP system, ring, server with four tenants,
// one walker and one hog per tenant so that progCache holds them, then
// serveWarm cached sessions. The first walkers do not hop: Submit only
// enqueues the registration of a new program on each daemon, and a walker
// that hopped at once could reach the peer before its program (ROADMAP open
// item 4). registryMisses counts how often that happens.
func newServeSys(e *env) (*serveSys, error) {
	sys, err := newRing(true, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	s := &serveSys{sys: sys, seed: e.seed}
	for c := range s.ch {
		s.ch[c] = make(chan done, 1)
	}
	var tenants []serve.TenantConfig
	client := map[string]int{} // tenant ID -> the client that owns it
	for i := 0; i < serveTenants; i++ {
		tenants = append(tenants, serve.TenantConfig{ID: tenantID(i), Quota: serve.Quota{
			StepBudget: serveBudget, MemBudget: 64 << 10, MaxQueue: 512, MaxLive: 256,
		}})
		client[tenantID(i)] = i * serveClients / serveTenants
	}
	s.srv, err = serve.New(sys.System, serve.Config{
		Tenants: tenants,
		OnComplete: func(c serve.Completion) {
			s.ch[client[c.Tenant]] <- done{c, time.Now()}
		},
	})
	if err != nil {
		sys.Close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	warm := &outcome{}
	for i := 0; i < serveTenants; i++ {
		s.session(warm, rng, client[tenantID(i)], i, kindCached, 0, 0, nil)
		s.session(warm, rng, client[tenantID(i)], i, kindHog, 0, 0, nil)
	}
	settle(sys)
	for i := 0; i < serveWarm; i++ {
		s.session(warm, rng, 0, i%(serveTenants/serveClients), kindCached, serveHops, 0, nil)
	}
	if len(warm.failures) > 0 {
		sys.Close()
		return nil, fmt.Errorf("warm-up: %s", warm.failures[0])
	}
	return s, nil
}

// sessTimes is what one session took, for the samples and the layer table.
type sessTimes struct {
	kind   sessKind
	submit time.Duration // the Submit call alone
	total  time.Duration // Submit call to completion
	wall   time.Duration // Submit call to the client's next Submit call
	// ok: admitted and completed as its kind should; rejected: Submit refused.
	ok, rejected bool
}

// session submits one session for client c as the given tenant and waits
// for its completion. A walker makes hops hops; salt makes a fresh walker's
// source unique.
func (s *serveSys) session(out *outcome, rng *rand.Rand, c, tenant int, kind sessKind, hops int, salt int64, sp *spanRec) sessTimes {
	d := rng.Intn(daemons)
	sub := serve.Submission{
		Tenant: tenantID(tenant), Name: "walker", Source: walkerSrc,
		Node: fmt.Sprintf("r%d", d), Daemon: d,
		Vars: map[string]value.Value{"hops": value.Int(int64(hops))},
	}
	switch kind {
	case kindFresh:
		// The salt sits in a comment on purpose: Program.Hash excludes
		// Source, so every daemon's registry already holds this hash and
		// the register-versus-arrival race cannot lose the session.
		sub.Source = fmt.Sprintf("%s// %d-%d-%d\n", walkerSrc, s.seed, c, salt)
	case kindHog:
		sub.Name, sub.Source, sub.Vars = "hog", hogSrc, nil
	}
	st := sessTimes{kind: kind}
	id := sp.id()
	t0 := time.Now()
	_, _, err := s.srv.Submit(sub)
	t1 := time.Now()
	st.submit = t1.Sub(t0)
	sp.add(c, "serve.submit", sp.id(), id, t0, t1)
	if err != nil {
		out.failf("rejected: %v", err)
		st.rejected = true
		return st
	}
	select {
	case dn := <-s.ch[c]:
		st.total = dn.at.Sub(t0)
		sp.add(c, "serve.complete", sp.id(), id, t1, dn.at)
		sp.add(c, "session", id, 0, t0, dn.at)
		if dn.comp.Evicted != (kind == kindHog) {
			out.failf("session %d of %s: evicted=%v, kind %d (%s)", dn.comp.Session, dn.comp.Tenant,
				dn.comp.Evicted, kind, dn.comp.Reason)
			return st
		}
		if kind != kindHog {
			s.mu.Lock()
			s.visits += int64(hops)
			s.mu.Unlock()
		}
		st.ok = true
	case <-time.After(10 * time.Second):
		out.failf("session lost: no completion within 10 s")
	}
	return st
}

func runServeMix(e *env) (*outcome, error) {
	s, setups, err := repeatSetup(e.setups, func() (*serveSys, error) { return newServeSys(e) })
	if err != nil {
		return nil, err
	}
	defer s.close()
	out := &outcome{setups: setups, facts: map[string]float64{}}

	// Each client draws its own seeded stream of kinds, tenants and
	// daemons, so the inputs do not depend on how the clients interleave.
	type clientLog struct {
		out   outcome
		times []sessTimes
	}
	logs := make([]clientLog, serveClients)
	deadline := time.Now().Add(e.budget)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			rng := rand.New(rand.NewSource(e.seed*serveClients + int64(c)))
			for n := int64(0); n == 0 || time.Now().Before(deadline); n++ {
				kind := kindHog
				if x := rng.Intn(100); x < mixCached {
					kind = kindCached
				} else if x < mixCached+mixFresh {
					kind = kindFresh
				}
				tenant := c*serveTenants/serveClients + rng.Intn(serveTenants/serveClients)
				t0 := time.Now()
				st := s.session(&l.out, rng, c, tenant, kind, serveHops, n, e.spans)
				st.wall = time.Since(t0)
				l.times = append(l.times, st)
				if len(l.out.failures) > 100 {
					return // nothing is getting through; do not spin
				}
			}
		}(c)
	}
	wg.Wait()
	s.srv.WaitIdle()

	var submitCached, submitFresh, evict []float64
	var rejected int64
	for c := range logs {
		out.failures = append(out.failures, logs[c].out.failures...)
		var admitted []lapse
		for _, st := range logs[c].times {
			out.attempts++
			if st.rejected {
				rejected++
			}
			if !st.ok {
				admitted = append(admitted, lapse{0, st.wall})
				continue
			}
			admitted = append(admitted, lapse{1, st.wall})
			us := float64(st.total.Nanoseconds()) / 1e3
			switch st.kind {
			case kindCached:
				out.opUS = append(out.opUS, us)
				submitCached = append(submitCached, float64(st.submit.Nanoseconds())/1e3)
			case kindFresh:
				out.opUS = append(out.opUS, us)
				submitFresh = append(submitFresh, float64(st.submit.Nanoseconds())/1e3)
			case kindHog:
				evict = append(evict, us)
			}
		}
		// The clients run side by side for the same time, so chunk j of
		// one overlaps chunk j of the other and their rates add up.
		for j, r := range chunkRates(admitted) {
			if j == len(out.rates) {
				out.rates = append(out.rates, 0)
			}
			out.rates[j] += r
		}
	}
	out.facts["submit_cached_us"] = median(submitCached)
	out.facts["submit_fresh_us"] = median(submitFresh)
	out.facts["evict_us"] = median(evict)
	out.facts["reject_share"] = float64(rejected) / float64(out.attempts)

	s.check(out)
	return out, nil
}

// check holds the quota invariants and the books against the nodes.
func (s *serveSys) check(out *outcome) {
	if v := s.srv.Violations(); v != 0 {
		out.failf("%d quota violations", v)
	}
	for _, ts := range s.srv.Stats() {
		if ts.MaxSessionSteps > serveBudget {
			out.failf("tenant %s: a session ran %d steps, budget %d", ts.ID, ts.MaxSessionSteps, serveBudget)
		}
	}
	if live := s.srv.LiveSessions(); live != 0 {
		out.failf("%d sessions still live", live)
	}
	if got := nodeSum(s.sys, "visits"); got != float64(s.visits) {
		out.failf("sum of node.visits = %.0f, want %d, the hops of the completed walkers", got, s.visits)
	}
	// serve reports completion for a Messenger that died on a runtime
	// error, so a grown error list is a failed session too.
	for _, err := range s.sys.Errors() {
		out.failf("runtime error: %v", err)
	}
}

// registryMisses is the probe behind core.registry_miss: n closed-loop
// sessions whose salt is a statement, not a comment, so every source has a
// hash no registry holds yet and the Messenger can outrun its own program
// (ROADMAP open item 4). It gates nothing; item 4's fix should drive it to
// zero.
func registryMisses(e *env, n int) (float64, error) {
	s, err := newServeSys(e)
	if err != nil {
		return 0, err
	}
	defer s.close()
	for i := 0; i < n; i++ {
		d := i % daemons
		sub := serve.Submission{
			Tenant: tenantID(0), Name: "walker",
			Source: fmt.Sprintf("%sz = %d;\n", walkerSrc, i),
			Node:   fmt.Sprintf("r%d", d), Daemon: d,
			Vars: map[string]value.Value{"hops": value.Int(serveHops)},
		}
		if _, _, err := s.srv.Submit(sub); err != nil {
			return 0, err
		}
		select {
		case <-s.ch[0]:
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("registry probe: session %d lost", i)
		}
	}
	s.srv.WaitIdle()
	var misses float64
	for _, err := range s.sys.Errors() {
		if strings.Contains(err.Error(), "not in registry") {
			misses++
		}
	}
	return misses, nil
}
