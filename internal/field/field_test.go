package field

import (
	"testing"
	"testing/quick"

	"commopt/internal/grid"
)

func region2(lo1, hi1, lo2, hi2 int) grid.Region {
	return grid.NewRegion(2, grid.Span{Lo: lo1, Hi: hi1}, grid.Span{Lo: lo2, Hi: hi2})
}

// alloc lays a field over fresh zeroed storage of its own.
func alloc(name string, local grid.Region, ghost int) *Field {
	return New(name, local, ghost, make([]float64, Len(local, ghost)))
}

// TestFieldsShareASlabApart: fields carved side by side from one slab each
// see exactly their own doubles, and storage too short for a field is
// refused.
func TestFieldsShareASlabApart(t *testing.T) {
	a, b := region2(1, 4, 1, 4), region2(1, 4, 5, 8)
	slab := make([]float64, Len(a, 1)+Len(b, 1))
	fa := New("A", a, 1, slab)
	fb := New("B", b, 1, slab[len(fa.Data()):])
	if len(fa.Data()) != 36 || cap(fa.Data()) != 36 || len(fb.Data()) != 36 {
		t.Fatalf("A holds %d (cap %d), B %d doubles; want 36 each", len(fa.Data()), cap(fa.Data()), len(fb.Data()))
	}
	for i := range fa.Data() {
		fa.Data()[i] = 1
	}
	if fb.Data()[0] != 0 {
		t.Fatal("A's writes reached B")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted storage shorter than the field")
		}
	}()
	New("C", a, 1, slab[:35])
}

func TestNewAndHalo(t *testing.T) {
	f := alloc("A", region2(5, 8, 3, 10), 1)
	if !f.Allocated() {
		t.Fatal("field should be allocated")
	}
	h := f.Halo()
	if h.Spans[0] != (grid.Span{Lo: 4, Hi: 9}) || h.Spans[1] != (grid.Span{Lo: 2, Hi: 11}) {
		t.Fatalf("halo = %v", h)
	}
	// Ghost cells read as zero before any communication.
	if v := f.Data()[f.IndexOf(4, 3, 1)]; v != 0 {
		t.Fatalf("uninitialized ghost = %v", v)
	}
}

func TestEmptyField(t *testing.T) {
	f := alloc("A", region2(1, 0, 1, 4), 1)
	if f.Allocated() {
		t.Fatal("empty local region should not allocate")
	}
}

func TestOutOfHaloPanics(t *testing.T) {
	f := alloc("A", region2(1, 4, 1, 4), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic compiling a run outside the halo")
		}
	}()
	f.Run(region2(7, 7, 1, 1))
}

// TestExtractInsertRoundTrip: copying a rectangle's rows, as its RectRun
// lays them out, from one field into another of the same shape reproduces
// the rectangle's values exactly and writes nothing else, for arbitrary
// rectangles.
func TestExtractInsertRoundTrip(t *testing.T) {
	prop := func(lo1, len1, lo2, len2 uint8) bool {
		src := alloc("S", region2(1, 12, 1, 12), 2)
		for i := range src.Data() {
			src.Data()[i] = float64(i + 1)
		}

		r1 := grid.Span{Lo: 1 + int(lo1%8), Hi: 0}
		r1.Hi = r1.Lo + int(len1%4)
		r2 := grid.Span{Lo: 1 + int(lo2%8), Hi: 0}
		r2.Hi = r2.Lo + int(len2%4)
		rect := grid.NewRegion(2, r1, r2)

		r := src.Run(rect)
		dst := alloc("D", region2(1, 12, 1, 12), 2)
		for a := 0; a < r.N0; a++ {
			for b := 0; b < r.N1; b++ {
				row := r.Base + a*r.S0 + b*r.S1
				copy(dst.Data()[row:row+r.RowLen], src.Data()[row:row+r.RowLen])
			}
		}
		for i := r1.Lo; i <= r1.Hi; i++ {
			for j := r2.Lo; j <= r2.Hi; j++ {
				if x := dst.IndexOf(i, j, 1); dst.Data()[x] != src.Data()[x] {
					return false
				}
			}
		}
		written := 0
		for _, v := range dst.Data() {
			if v != 0 {
				written++
			}
		}
		return written == rect.Size()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRank3Field(t *testing.T) {
	local := grid.NewRegion(3, grid.Span{Lo: 1, Hi: 2}, grid.Span{Lo: 1, Hi: 2}, grid.Span{Lo: 1, Hi: 8})
	f := alloc("U", local, 1)
	point := func(i, j, k int) grid.Region {
		return grid.NewRegion(3, grid.Span{Lo: i, Hi: i}, grid.Span{Lo: j, Hi: j}, grid.Span{Lo: k, Hi: k})
	}
	// Third-dimension ghost planes exist, and nothing beyond them.
	if !f.Contains(point(1, 1, 0)) || !f.Contains(point(2, 2, 9)) || f.Contains(point(1, 1, 10)) {
		t.Fatal("rank-3 ghost planes wrong")
	}
	if got, want := len(f.Data()), 4*4*10; got != want {
		t.Fatalf("rank-3 field holds %d doubles, want %d", got, want)
	}
	if f.IndexOf(1, 1, 5)-f.IndexOf(1, 1, 4) != 1 {
		t.Fatal("rank-3 rows not contiguous along k")
	}
}

// TestRawAccessors: IndexOf numbers the halo's points 0, 1, 2, ... in
// row-major order, so the flat view kernels use (Data/Stride/IndexOf)
// covers the backing slice exactly and rows along the last dimension of
// the rank are consecutive runs of it.
func TestRawAccessors(t *testing.T) {
	f := alloc("A", region2(5, 8, 3, 10), 1)
	if f.Stride(2) != 1 || f.Stride(1) != 1 || f.Stride(0) != 10 {
		t.Fatalf("strides %d %d %d, want 10 1 1", f.Stride(0), f.Stride(1), f.Stride(2))
	}
	h := f.Halo()
	n := 0
	for i := h.Spans[0].Lo; i <= h.Spans[0].Hi; i++ {
		for j := h.Spans[1].Lo; j <= h.Spans[1].Hi; j++ {
			if got := f.IndexOf(i, j, 1); got != n {
				t.Fatalf("IndexOf(%d,%d,1) = %d, want %d", i, j, got, n)
			}
			n++
		}
	}
	if n != len(f.Data()) {
		t.Fatalf("halo has %d points, Data %d", n, len(f.Data()))
	}
}

func TestContains(t *testing.T) {
	f := alloc("A", region2(5, 8, 3, 10), 1)
	cases := []struct {
		reg  grid.Region
		want bool
	}{
		{f.Local, true},
		{f.Halo(), true},
		{region2(4, 9, 2, 11), true},   // exactly the halo
		{region2(3, 9, 2, 11), false},  // one plane above
		{region2(4, 10, 2, 11), false}, // one plane below
		{region2(5, 8, 2, 12), false},  // past the halo east edge
		{region2(6, 5, 1, 100), true},  // empty region always contained
	}
	for _, c := range cases {
		if got := f.Contains(c.reg); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.reg, got, c.want)
		}
	}
	empty := alloc("E", region2(1, 0, 1, 4), 1)
	if empty.Contains(region2(1, 1, 1, 1)) {
		t.Error("unallocated field contains a nonempty region")
	}
	if !empty.Contains(region2(1, 0, 1, 4)) {
		t.Error("unallocated field should contain the empty region")
	}
}
