package sim

// Heap is a plain binary min-heap over the strict ordering less each call
// passes, for queues off the kernel's hot path (core's wake queue). The
// kernel's own event queue does not use it: that heap holds pointer-free
// entries and compares them inline.
//
// A Heap is its elements, in heap order: the zero value is an empty heap,
// its minimum is element 0, and a whole-queue scan ranges over it. The ordering
// must be the same on every call, a strict weak order and — for the
// deterministic queues in this repo — a total order (ties broken by a
// sequence number), so that every Pop order is reproducible.
type Heap[T any] []T

// Push adds x.
func (h *Heap[T]) Push(x T, less func(a, b T) bool) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !less(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// Pop removes and returns the minimum element.
func (h *Heap[T]) Pop(less func(a, b T) bool) T {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	x := s[n]
	var zero T
	s[n] = zero // release references for GC
	s = s[:n]
	*h = s
	// Sift the new root toward the leaves.
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && less(s[r], s[l]) {
			m = r
		}
		if !less(s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return x
}
