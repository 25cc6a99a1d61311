// Package field implements the per-processor storage for block distributed
// arrays: a dense local block in global coordinates surrounded by a ghost
// (fluff) region that caches non-local values delivered by communication.
package field

import (
	"fmt"

	"commopt/internal/grid"
)

// Field is one processor's slice of a distributed array. All indexing is in
// global coordinates; the field stores the owned block plus Ghost extra
// planes on every side of every dimension. Values default to zero,
// including ghost cells that are never filled (which models ZPL reads of
// uninitialized border values at the global boundary).
type Field struct {
	Name  string
	Rank  int
	Local grid.Region // owned block, global coordinates (may be empty)
	Ghost int         // uniform ghost width, >= 0

	base   [grid.MaxRank]int // global coordinate of data index 0 per dim
	extent [grid.MaxRank]int // allocated size per dim
	stride [grid.MaxRank]int
	data   []float64
}

// New allocates a field for the given owned block with the given ghost
// width. An empty local region yields a zero-sized field whose accessors
// must not be used.
func New(name string, local grid.Region, ghost int) *Field {
	if ghost < 0 {
		panic("field: negative ghost width")
	}
	f := &Field{Name: name, Rank: local.Rank, Local: local, Ghost: ghost}
	if local.Empty() {
		return f
	}
	n := 1
	for d := 0; d < grid.MaxRank; d++ {
		g := ghost
		if d >= local.Rank {
			g = 0
		}
		f.base[d] = local.Spans[d].Lo - g
		f.extent[d] = local.Spans[d].Len() + 2*g
		n *= f.extent[d]
	}
	f.stride[2] = 1
	f.stride[1] = f.extent[2]
	f.stride[0] = f.extent[1] * f.extent[2]
	f.data = make([]float64, n)
	return f
}

// Allocated reports whether the field owns any data.
func (f *Field) Allocated() bool { return len(f.data) > 0 }

// Data exposes the raw backing slice (nil for an unallocated field). The
// layout is row major with the strides reported by Stride; compiled
// kernels walk it directly instead of going through At/Set bounds checks.
func (f *Field) Data() []float64 { return f.data }

// Stride returns the flat-index distance between consecutive points along
// dimension d. The last dimension of a field's rank is always contiguous
// (stride 1), because trailing unused dimensions have extent 1.
func (f *Field) Stride(d int) int { return f.stride[d] }

// IndexOf returns the flat index into Data of global point (i,j,k)
// without bounds checking. Callers must ensure the point lies inside the
// halo (see Contains); kernels validate their whole iteration space once
// at compile time instead of per element.
func (f *Field) IndexOf(i, j, k int) int { return f.index(i, j, k) }

// Contains reports whether every point of reg lies inside the allocated
// halo. An empty region is contained trivially; an unallocated field
// contains nothing but the empty region.
func (f *Field) Contains(reg grid.Region) bool {
	if reg.Empty() {
		return true
	}
	if !f.Allocated() {
		return false
	}
	for d := 0; d < grid.MaxRank; d++ {
		if reg.Spans[d].Lo < f.base[d] || reg.Spans[d].Hi >= f.base[d]+f.extent[d] {
			return false
		}
	}
	return true
}

// Halo returns the full allocated region (owned block plus ghosts) in
// global coordinates.
func (f *Field) Halo() grid.Region {
	out := f.Local
	for d := 0; d < f.Rank; d++ {
		out.Spans[d].Lo -= f.Ghost
		out.Spans[d].Hi += f.Ghost
	}
	return out
}

func (f *Field) index(i, j, k int) int {
	return (i-f.base[0])*f.stride[0] + (j-f.base[1])*f.stride[1] + (k - f.base[2])
}

// In reports whether global point (i,j,k) lies inside the allocated halo.
func (f *Field) In(i, j, k int) bool {
	pt := [grid.MaxRank]int{i, j, k}
	for d := 0; d < grid.MaxRank; d++ {
		if pt[d] < f.base[d] || pt[d] >= f.base[d]+f.extent[d] {
			return false
		}
	}
	return true
}

// At returns the value at global point (i,j,k). Points of rank < 3 use 1
// for the unused trailing coordinates.
func (f *Field) At(i, j, k int) float64 {
	if !f.In(i, j, k) {
		panic(fmt.Sprintf("field %s: read (%d,%d,%d) outside halo %v", f.Name, i, j, k, f.Halo()))
	}
	return f.data[f.index(i, j, k)]
}

// Set stores v at global point (i,j,k).
func (f *Field) Set(i, j, k int, v float64) {
	if !f.In(i, j, k) {
		panic(fmt.Sprintf("field %s: write (%d,%d,%d) outside halo %v", f.Name, i, j, k, f.Halo()))
	}
	f.data[f.index(i, j, k)] = v
}

// Fill sets every point of reg (which must lie inside the halo) to v.
func (f *Field) Fill(reg grid.Region, v float64) {
	ForEach(reg, func(i, j, k int) { f.Set(i, j, k, v) })
}

// ExtractRect copies the values of reg (inside the halo) into a fresh slice
// in row-major (i, then j, then k) order.
func (f *Field) ExtractRect(reg grid.Region) []float64 {
	out := make([]float64, 0, reg.Size())
	ForEach(reg, func(i, j, k int) { out = append(out, f.At(i, j, k)) })
	return out
}

// RectRun describes a rectangle of the field as a flat copy plan over the
// backing slice: n0 × n1 rows of rowLen contiguous doubles, the outer
// index advancing by s0 and the middle by s1 from base. Visiting the rows
// in (outer, middle) order and each row left to right enumerates exactly
// the points ForEach visits, so a run-driven copy is order-identical to
// ExtractRect/InsertRect. The communication engine compiles one RectRun
// per transfer rectangle so the per-message path does no geometry work.
type RectRun struct {
	Base   int // flat index of the rectangle's first element
	S0, S1 int // outer and middle stride between row starts
	N0, N1 int // outer and middle trip counts
	RowLen int // contiguous doubles per row
}

// Run compiles reg (which must be non-empty and lie inside the halo) into
// a RectRun. Rows always follow the last dimension of the field's rank,
// which is contiguous because trailing unused dimensions have extent 1.
func (f *Field) Run(reg grid.Region) RectRun {
	if reg.Empty() || !f.Contains(reg) {
		panic(fmt.Sprintf("field %s: run of %v outside halo %v", f.Name, reg, f.Halo()))
	}
	s := reg.Spans
	base := f.index(s[0].Lo, s[1].Lo, s[2].Lo)
	switch f.Rank {
	case 1:
		// Dimension 0 is contiguous (extent[1]*extent[2] == 1).
		return RectRun{Base: base, N0: 1, N1: 1, RowLen: s[0].Len()}
	case 2:
		// Dimension 1 is contiguous (extent[2] == 1); rows iterate i.
		return RectRun{Base: base, N0: 1, S1: f.stride[0], N1: s[0].Len(), RowLen: s[1].Len()}
	default:
		return RectRun{
			Base: base,
			S0:   f.stride[0], N0: s[0].Len(),
			S1: f.stride[1], N1: s[1].Len(),
			RowLen: s[2].Len(),
		}
	}
}

// InsertRect stores vals (row-major) into reg. len(vals) must equal
// reg.Size().
func (f *Field) InsertRect(reg grid.Region, vals []float64) {
	if len(vals) != reg.Size() {
		panic(fmt.Sprintf("field %s: insert size %d != region %v size %d", f.Name, len(vals), reg, reg.Size()))
	}
	n := 0
	ForEach(reg, func(i, j, k int) { f.Set(i, j, k, vals[n]); n++ })
}

// ForEach visits every point of reg in row-major order. Regions of rank <3
// are visited with trailing coordinates fixed at their degenerate span.
func ForEach(reg grid.Region, fn func(i, j, k int)) {
	if reg.Empty() {
		return
	}
	for i := reg.Spans[0].Lo; i <= reg.Spans[0].Hi; i++ {
		for j := reg.Spans[1].Lo; j <= reg.Spans[1].Hi; j++ {
			for k := reg.Spans[2].Lo; k <= reg.Spans[2].Hi; k++ {
				fn(i, j, k)
			}
		}
	}
}
