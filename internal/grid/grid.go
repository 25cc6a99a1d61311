// Package grid models the virtual processor mesh and the block
// distribution of arrays across it.
//
// Following the paper (and ZPL's runtime of that era), all arrays are
// trivially aligned and block distributed across a two dimensional virtual
// processor mesh. Arrays of rank three keep their third dimension entirely
// local to each processor. A shifted array reference (the ZPL @ operator)
// therefore implies nearest-neighbor communication on the mesh whenever the
// offset is non-zero in one of the first two dimensions.
package grid

import "fmt"

// MaxRank is the highest array rank supported by the runtime.
const MaxRank = 3

// Offset is a static shift vector, one component per dimension. Unused
// trailing dimensions are zero. Offsets correspond to ZPL direction values:
// A@[0,1] reads A(i, j+1).
type Offset [MaxRank]int

// IsZero reports whether the offset implies a purely local access.
func (o Offset) IsZero() bool { return o == Offset{} }

// Neg returns the component-wise negation of o.
func (o Offset) Neg() Offset {
	var n Offset
	for i, v := range o {
		n[i] = -v
	}
	return n
}

// NeedsComm reports whether a reference shifted by o requires communication
// under the block distribution: any non-zero component in a distributed
// dimension (the first two) does.
func (o Offset) NeedsComm() bool { return o[0] != 0 || o[1] != 0 }

// String renders the offset in ZPL direction syntax, e.g. "[0,1]".
func (o Offset) String() string { return fmt.Sprintf("[%d,%d,%d]", o[0], o[1], o[2]) }

// Mesh is a two dimensional virtual processor mesh.
type Mesh struct {
	Rows, Cols int
}

// NewMesh returns an r×c mesh. It panics if either dimension is < 1.
func NewMesh(r, c int) Mesh {
	if r < 1 || c < 1 {
		panic(fmt.Sprintf("grid: invalid mesh %dx%d", r, c))
	}
	return Mesh{Rows: r, Cols: c}
}

// SquarestMesh returns the mesh for p processors whose aspect ratio is as
// close to square as possible, preferring more rows than columns when p is
// not a perfect square (8×8 for 64, 4×2 for 8, and so on).
func SquarestMesh(p int) Mesh {
	if p < 1 {
		panic("grid: processor count must be >= 1")
	}
	best := Mesh{Rows: p, Cols: 1}
	for r := 1; r <= p; r++ {
		if p%r != 0 {
			continue
		}
		c := p / r
		if abs(r-c) <= abs(best.Rows-best.Cols) && r >= c {
			best = Mesh{Rows: r, Cols: c}
		}
	}
	return best
}

// MaxProcs bounds the processor counts MeshFor accepts. The block
// distribution itself works at any count; the bound keeps a typo'd
// -procs from allocating millions of processor states before the run
// inevitably fails the block-size check.
const MaxProcs = 1 << 16

// MeshFor validates a processor count and returns its near-square mesh:
// 256 → 16×16, 2048 → 64×32, prime counts degenerate to p×1. Counts the
// block distribution cannot handle report an error instead of panicking
// deep inside mesh construction.
func MeshFor(p int) (Mesh, error) {
	if p < 1 {
		return Mesh{}, fmt.Errorf("grid: processor count %d < 1", p)
	}
	if p > MaxProcs {
		return Mesh{}, fmt.Errorf("grid: processor count %d exceeds the %d-processor limit of the block distribution", p, MaxProcs)
	}
	return SquarestMesh(p), nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Size returns the number of processors in the mesh.
func (m Mesh) Size() int { return m.Rows * m.Cols }

// Rank converts mesh coordinates to a linear processor rank (row major).
func (m Mesh) Rank(r, c int) int { return r*m.Cols + c }

// Coord converts a linear rank back to mesh coordinates.
func (m Mesh) Coord(rank int) (r, c int) { return rank / m.Cols, rank % m.Cols }

// Neighbor returns the rank of the processor displaced by (dr, dc) from
// rank, and whether such a processor exists. The mesh is not a torus: going
// off an edge reports ok=false, matching ZPL's non-periodic @ semantics
// where boundary processors simply have no partner.
func (m Mesh) Neighbor(rank, dr, dc int) (int, bool) {
	r, c := m.Coord(rank)
	r += dr
	c += dc
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		return -1, false
	}
	return m.Rank(r, c), true
}

// String renders the mesh as "RxC".
func (m Mesh) String() string { return fmt.Sprintf("%dx%d", m.Rows, m.Cols) }

// Span is a closed index interval [Lo, Hi] in one dimension. An empty span
// has Hi < Lo.
type Span struct {
	Lo, Hi int
}

// Len returns the number of indices in the span (0 for an empty span).
func (s Span) Len() int {
	if s.Hi < s.Lo {
		return 0
	}
	return s.Hi - s.Lo + 1
}

// Empty reports whether the span contains no indices.
func (s Span) Empty() bool { return s.Hi < s.Lo }

// Contains reports whether i lies in the span.
func (s Span) Contains(i int) bool { return i >= s.Lo && i <= s.Hi }

// Intersect returns the intersection of s and t (possibly empty).
func (s Span) Intersect(t Span) Span {
	lo, hi := s.Lo, s.Hi
	if t.Lo > lo {
		lo = t.Lo
	}
	if t.Hi < hi {
		hi = t.Hi
	}
	return Span{lo, hi}
}

// BlockSpan returns the sub-span of global indices [1, n] owned by block b
// out of p blocks, using the standard balanced block distribution: the
// first n%p blocks get ceil(n/p) indices, the rest floor(n/p). Blocks are
// numbered from zero. n may be zero, yielding empty spans everywhere.
func BlockSpan(n, p, b int) Span {
	if p < 1 || b < 0 || b >= p {
		panic(fmt.Sprintf("grid: bad block %d of %d", b, p))
	}
	q, r := n/p, n%p
	lo := 1 + b*q + min(b, r)
	size := q
	if b < r {
		size++
	}
	return Span{Lo: lo, Hi: lo + size - 1}
}

// Region is a rectangular set of global indices, one Span per dimension.
// Unused trailing dimensions hold the degenerate span [1,1].
type Region struct {
	Rank  int
	Spans [MaxRank]Span
}

// NewRegion builds a region of the given rank from spans. Trailing
// dimensions default to [1,1].
func NewRegion(rank int, spans ...Span) Region {
	if rank < 1 || rank > MaxRank || len(spans) != rank {
		panic(fmt.Sprintf("grid: bad region rank %d with %d spans", rank, len(spans)))
	}
	reg := Region{Rank: rank}
	for i := range reg.Spans {
		reg.Spans[i] = Span{1, 1}
	}
	copy(reg.Spans[:], spans)
	return reg
}

// Size returns the number of index points in the region.
func (g Region) Size() int {
	n := 1
	for _, s := range g.Spans {
		n *= s.Len()
	}
	return n
}

// Empty reports whether any dimension of the region is empty.
func (g Region) Empty() bool {
	for _, s := range g.Spans {
		if s.Empty() {
			return true
		}
	}
	return false
}

// Intersect returns the region common to g and h (ranks must match).
func (g Region) Intersect(h Region) Region {
	if g.Rank != h.Rank {
		panic("grid: intersecting regions of different rank")
	}
	out := Region{Rank: g.Rank}
	for i := range out.Spans {
		out.Spans[i] = g.Spans[i].Intersect(h.Spans[i])
	}
	return out
}

// Shift returns the region displaced by o: each span moves by the matching
// offset component.
func (g Region) Shift(o Offset) Region {
	out := g
	for i := 0; i < MaxRank; i++ {
		out.Spans[i].Lo += o[i]
		out.Spans[i].Hi += o[i]
	}
	return out
}

// String renders the region in ZPL syntax, e.g. "[1..128, 1..128]".
func (g Region) String() string {
	s := "["
	for i := 0; i < g.Rank; i++ {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d..%d", g.Spans[i].Lo, g.Spans[i].Hi)
	}
	return s + "]"
}
