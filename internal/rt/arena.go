package rt

// arena is a per-processor scratch allocator for kernel temporaries: the
// whole-array staging buffer of assignArray and the per-node scratch rows
// of compiled kernels. One arena lives in each proc and is reused across
// every statement execution, replacing the per-execution tmp := make(...)
// of the interpreter. Allocation is stack-like: callers record a mark,
// allocate, and release back to the mark when the statement completes.
// Each proc runs on a single goroutine, so no locking is needed.
type arena struct {
	buf  []float64
	used int
}

// mark returns the current allocation point for a later release.
func (a *arena) mark() int { return a.used }

// alloc returns n scratch doubles. The contents are unspecified: kernels
// fully overwrite every row before reading it, so no zeroing happens on
// the hot path. Growing preserves offsets (marks stay valid); slices
// returned before a growth keep aliasing the old buffer, which is only
// ever read back through those same slices.
func (a *arena) alloc(n int) []float64 {
	if a.used+n > len(a.buf) {
		size := 2 * (a.used + n)
		if size < 1024 {
			size = 1024
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
