package grid

import (
	"testing"
	"testing/quick"
)

func TestSquarestMesh(t *testing.T) {
	cases := []struct {
		p, rows, cols int
	}{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {8, 4, 2}, {16, 4, 4},
		{64, 8, 8}, {12, 4, 3}, {6, 3, 2}, {7, 7, 1},
	}
	for _, c := range cases {
		m := SquarestMesh(c.p)
		if m.Rows != c.rows || m.Cols != c.cols {
			t.Errorf("SquarestMesh(%d) = %v, want %dx%d", c.p, m, c.rows, c.cols)
		}
	}
}

func TestMeshFor(t *testing.T) {
	cases := []struct {
		p, rows, cols int
	}{
		{1, 1, 1}, {64, 8, 8},
		{256, 16, 16}, {1024, 32, 32}, {2048, 64, 32}, {4096, 64, 64},
		{13, 13, 1},     // prime: degenerates to a column
		{45, 9, 5},      // odd composite
		{1009, 1009, 1}, // large prime
	}
	for _, c := range cases {
		m, err := MeshFor(c.p)
		if err != nil {
			t.Errorf("MeshFor(%d): %v", c.p, err)
			continue
		}
		if m.Rows != c.rows || m.Cols != c.cols {
			t.Errorf("MeshFor(%d) = %v, want %dx%d", c.p, m, c.rows, c.cols)
		}
		if m.Size() != c.p {
			t.Errorf("MeshFor(%d).Size() = %d", c.p, m.Size())
		}
	}
}

func TestMeshForRejectsBadCounts(t *testing.T) {
	for _, p := range []int{0, -1, MaxProcs + 1} {
		if _, err := MeshFor(p); err == nil {
			t.Errorf("MeshFor(%d): want error, got nil", p)
		}
	}
	if _, err := MeshFor(MaxProcs); err != nil {
		t.Errorf("MeshFor(MaxProcs): %v", err)
	}
}

func TestMeshRankCoordRoundTrip(t *testing.T) {
	m := Mesh{Rows: 5, Cols: 7}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			gr, gc := m.Coord(m.Rank(r, c))
			if gr != r || gc != c {
				t.Fatalf("coord(rank(%d,%d)) = (%d,%d)", r, c, gr, gc)
			}
		}
	}
}

func TestNeighborEdges(t *testing.T) {
	m := Mesh{Rows: 3, Cols: 3}
	if _, ok := m.Neighbor(0, -1, 0); ok {
		t.Error("rank 0 should have no north neighbor")
	}
	if n, ok := m.Neighbor(4, 1, 1); !ok || n != 8 {
		t.Errorf("center's se neighbor = %d, %v; want 8, true", n, ok)
	}
	if _, ok := m.Neighbor(8, 0, 1); ok {
		t.Error("corner 8 should have no east neighbor")
	}
}

// TestBlockSpanPartition: block spans exactly partition [1, n] in order,
// for arbitrary n and p.
func TestBlockSpanPartition(t *testing.T) {
	prop := func(n, p uint8) bool {
		nn := int(n % 200)
		pp := 1 + int(p%16)
		next := 1
		for b := 0; b < pp; b++ {
			s := BlockSpan(nn, pp, b)
			if s.Empty() {
				continue
			}
			if s.Lo != next {
				return false
			}
			next = s.Hi + 1
		}
		return next == nn+1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBlockSizesBalanced: block sizes differ by at most one.
func TestBlockSizesBalanced(t *testing.T) {
	prop := func(n, p uint8) bool {
		nn := int(n)
		pp := 1 + int(p%16)
		min, max := 1<<30, 0
		for b := 0; b < pp; b++ {
			l := BlockSpan(nn, pp, b).Len()
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpanOps(t *testing.T) {
	a := Span{2, 10}
	b := Span{5, 20}
	if got := a.Intersect(b); got != (Span{5, 10}) {
		t.Errorf("intersect = %v", got)
	}
	if !a.Intersect(Span{11, 12}).Empty() {
		t.Error("disjoint spans should intersect empty")
	}
	if a.Len() != 9 {
		t.Errorf("len = %d", a.Len())
	}
}

func TestRegionShiftIntersect(t *testing.T) {
	r := NewRegion(2, Span{1, 8}, Span{1, 8})
	s := r.Shift(Offset{1, -1, 0})
	if s.Spans[0] != (Span{2, 9}) || s.Spans[1] != (Span{0, 7}) {
		t.Errorf("shift = %v", s)
	}
	i := r.Intersect(s)
	if i.Spans[0] != (Span{2, 8}) || i.Spans[1] != (Span{1, 7}) {
		t.Errorf("intersect = %v", i)
	}
	if r.Size() != 64 || i.Size() != 49 {
		t.Errorf("sizes %d, %d", r.Size(), i.Size())
	}
}

func TestOffsetProperties(t *testing.T) {
	if (Offset{}).NeedsComm() {
		t.Error("zero offset needs no comm")
	}
	if !(Offset{0, 1, 0}).NeedsComm() {
		t.Error("east offset needs comm")
	}
	if (Offset{0, 0, 1}).NeedsComm() {
		t.Error("third-dimension offsets are processor-local")
	}
}
