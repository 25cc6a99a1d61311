package rt

// arena is a per-processor scratch allocator for kernel temporaries: the
// staging rows and whole-result buffers of storeRow and storeFull kernels
// and the per-node scratch rows. One arena lives in each proc and is reused
// across every statement execution, so steady-state execution allocates
// nothing per statement. Allocation is stack-like: callers record a mark,
// allocate, and release back to the mark when the statement completes.
// One worker steps a processor at a time, so no locking is needed.
type arena struct {
	buf  []float64
	used int
}

// mark returns the current allocation point for a later release.
func (a *arena) mark() int { return a.used }

// alloc returns n scratch doubles. The contents are unspecified: kernels
// fully overwrite every row before reading it, so no zeroing happens on
// the hot path. The first growth is what the request needs, later ones
// double it. Growing preserves offsets (marks stay valid); slices
// returned before a growth keep aliasing the old buffer, which is only
// ever read back through those same slices.
func (a *arena) alloc(n int) []float64 {
	if a.used+n > len(a.buf) {
		size := a.used + n
		if a.buf != nil {
			size *= 2
		}
		next := make([]float64, size)
		copy(next, a.buf[:a.used])
		a.buf = next
	}
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// release returns the arena to a previous mark.
func (a *arena) release(mark int) { a.used = mark }
