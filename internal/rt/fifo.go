package rt

import "sync/atomic"

// fifo is a single-producer, single-consumer queue: one neighbour pushes,
// the owning processor pops, and each publishes its index with one atomic
// store — no lock and no read-modify-write. head and tail count entries
// ever popped and pushed; entry i lives at i mod the ring's length.
//
// Entries live in the inline ring until the producer runs more than
// len(ring) ahead of the consumer. Then the producer copies the live
// entries into a heap ring twice the size and publishes it before the
// tail that needs it, so the consumer, which loads tail before the ring,
// never indexes a ring that lacks an entry it may take. The heap ring is
// kept: a second fill to the same depth allocates nothing. A push never
// blocks, and order holds across the move.
type fifo[T any] struct {
	head, tail atomic.Uint32
	heap       atomic.Pointer[[]T] // nil until the inline ring first overflows
	ring       [2]T
}

// buf is the ring entries currently live in; its length is a power of two.
func (f *fifo[T]) buf() []T {
	if b := f.heap.Load(); b != nil {
		return *b
	}
	return f.ring[:]
}

// push appends v and returns the queue's depth after it (producer only).
func (f *fifo[T]) push(v T) int {
	t, h := f.tail.Load(), f.head.Load()
	b := f.buf()
	if int(t-h) == len(b) {
		big := make([]T, 2*len(b))
		for i := h; i != t; i++ {
			big[i&uint32(len(big)-1)] = b[i&uint32(len(b)-1)]
		}
		f.heap.Store(&big)
		b = big
	}
	b[t&uint32(len(b)-1)] = v
	f.tail.Store(t + 1)
	return int(t + 1 - h)
}

// pop takes the oldest entry, if any (consumer only). Popped entries are
// not cleared: a producer moving the ring may be copying them.
func (f *fifo[T]) pop() (v T, ok bool) {
	h := f.head.Load()
	if h == f.tail.Load() {
		return v, false
	}
	b := f.buf()
	v = b[h&uint32(len(b)-1)]
	f.head.Store(h + 1)
	return v, true
}

// len is the queue's depth as the caller sees it.
func (f *fifo[T]) len() int { return int(f.tail.Load() - f.head.Load()) }
