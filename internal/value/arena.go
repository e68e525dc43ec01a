package value

import "unsafe"

// Arena is a bump allocator for the Value slices that make up one
// Messenger's execution state — frame locals and the operand stack. The VM
// sizes it from the verifier's NumLocals/MaxStack metadata, so for the
// common single-frame Messenger everything it owns lives in one contiguous
// slab: a hop snapshot walks adjacent memory instead of scattered heap
// allocations, and restoring a snapshot is one slab plus decode.
//
// The arena is deliberately simple: it only bumps, never frees. Values
// handed out are zeroed; exhaustion falls back to ordinary heap allocation
// (the pre-arena behavior), so a deeply recursive or long-lived Messenger
// degrades gracefully instead of growing an unbounded slab — important
// when a server holds 100k+ paused sessions. Slices escape into VM state
// with independent lifetimes, so the only way back is Reset, which an owner
// calls once it has dropped them all; otherwise Go's GC reclaims the slab
// when the VM dies.
//
// An Arena is owned by a single VM and inherits the VM's concurrency
// contract (execution is daemon-confined); it is not safe for concurrent
// use.
type Arena struct {
	slab []Value
	used int
}

// valueSize is the in-memory footprint of one Value, for the
// vm.arena.bytes metric.
const valueSize = int64(unsafe.Sizeof(Value{}))

// maxArenaValues caps the slab a single VM may pin. Programs whose
// verifier-proven worst case exceeds this (MaxStack can reach 2^15) fall
// back to heap allocation for the excess rather than pinning megabytes
// per paused Messenger.
const maxArenaValues = 4096

// NewArena returns an arena with capacity for n Values, clamped to
// [0, maxArenaValues].
func NewArena(n int) *Arena {
	if n < 0 {
		n = 0
	}
	if n > maxArenaValues {
		n = maxArenaValues
	}
	return &Arena{slab: make([]Value, n)}
}

// Values returns a zeroed slice of n Values with len == cap (appending to
// it can never bleed into a neighboring allocation). When the slab cannot
// hold n more, the slice comes from the heap instead.
func (a *Arena) Values(n int) []Value {
	if n > len(a.slab)-a.used {
		return make([]Value, n)
	}
	s := a.slab[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// Reset makes the whole slab available again, zeroing what was handed out
// so that a slab waiting for reuse pins nothing its Values referenced. The
// owner must have dropped every slice Values gave it.
func (a *Arena) Reset() {
	clear(a.slab[:a.used])
	a.used = 0
}

// Bytes reports the slab's memory footprint (the vm.arena.bytes metric).
func (a *Arena) Bytes() int64 {
	return int64(len(a.slab)) * valueSize
}
