package sim

// Test support: ways to drive and observe the kernel and its processes
// that only this package's tests need.

// Parked reports how many processes are blocked with no pending wake-up.
// A nonzero value when Run returns indicates a deadlock in the simulated
// system.
func (k *Kernel) Parked() (n int) {
	for _, p := range k.allProcs {
		if p.parked {
			n++
		}
	}
	return n
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
func (k *Kernel) RunUntil(t Time) Time {
	for len(k.heap) > 0 && k.heap[0].at <= t {
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
	return k.now
}

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Advance consumes d nanoseconds of simulated time.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic("sim: Advance with negative duration")
	}
	p.k.After(d, p.resume)
	p.yieldToKernel()
}

// Mailbox is an unbounded FIFO queue connecting simulated components. Any
// event callback or process may Put; only processes may block in Get.
type Mailbox struct {
	items  []any
	waiter *Proc
}

// NewMailbox returns an empty mailbox.
func NewMailbox(*Kernel) *Mailbox { return &Mailbox{} }

// Put enqueues an item and wakes the waiting process, if any.
func (m *Mailbox) Put(item any) {
	m.items = append(m.items, item)
	if w := m.waiter; w != nil {
		m.waiter = nil
		w.Unpark()
	}
}

// Get dequeues the next item, parking p until one is available.
func (m *Mailbox) Get(p *Proc) any {
	for len(m.items) == 0 {
		m.waiter = p
		p.Park()
	}
	item := m.items[0]
	m.items = m.items[1:]
	return item
}
