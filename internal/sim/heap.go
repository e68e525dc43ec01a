package sim

// Heap is a plain binary min-heap over a caller-supplied strict ordering,
// for queues off the kernel's hot path (core's wake queue). The kernel's
// own event queue does not use it: that heap holds pointer-free entries
// and compares them inline, which a less func value would not allow.
//
// The zero value is not usable; construct with NewHeap. The ordering must
// be a strict weak order and — for the deterministic queues in this repo —
// a total order (ties broken by a sequence number), so that every Pop
// order is reproducible.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of elements held.
func (h *Heap[T]) Len() int { return len(h.items) }

// Peek returns the minimum element without removing it. It panics on an
// empty heap; callers check Len first.
func (h *Heap[T]) Peek() T { return h.items[0] }

// Items exposes the backing slice in heap order (not sorted order). It is
// read-only from the caller's perspective: mutating element priorities
// through it without a follow-up Reset/rebuild breaks the invariant. It
// exists for whole-queue scans (recovery draining a crashed daemon's wait
// queue).
func (h *Heap[T]) Items() []T { return h.items }

// Push adds x.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum element.
func (h *Heap[T]) Pop() T {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	x := h.items[n]
	var zero T
	h.items[n] = zero // release references for GC
	h.items = h.items[:n]
	if n > 0 {
		h.down(0)
	}
	return x
}

// Reset drops all elements, keeping capacity.
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// down sifts i toward the leaves.
func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(h.items[r], h.items[l]) {
			m = r
		}
		if !h.less(h.items[m], h.items[i]) {
			break
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
}
