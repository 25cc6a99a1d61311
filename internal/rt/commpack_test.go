package rt

import (
	"fmt"
	"slices"
	"testing"

	"commopt/internal/field"
	"commopt/internal/grid"
)

func sp(lo, hi int) grid.Span { return grid.Span{Lo: lo, Hi: hi} }

// fresh lays a field over zeroed storage of its own.
func fresh(name string, local grid.Region, ghost int) *field.Field {
	return field.New(name, local, ghost, make([]float64, field.Len(local, ghost)))
}

// numbered returns a field over local whose every halo cell holds a distinct
// value, so any misplaced or reordered element shows.
func numbered(name string, local grid.Region, ghost int, from float64) *field.Field {
	f := fresh(name, local, ghost)
	forEach(f.Halo(), func(i, j, k int) { f.Data()[f.IndexOf(i, j, k)] = from; from++ })
	return f
}

// forEach visits every point of reg in row-major (i, then j, then k)
// order; a region of rank < 3 has its trailing coordinates fixed.
func forEach(reg grid.Region, fn func(i, j, k int)) {
	for i := reg.Spans[0].Lo; i <= reg.Spans[0].Hi; i++ {
		for j := reg.Spans[1].Lo; j <= reg.Spans[1].Hi; j++ {
			for k := reg.Spans[2].Lo; k <= reg.Spans[2].Hi; k++ {
				fn(i, j, k)
			}
		}
	}
}

// extractRect and insertRect are the per-element reference the row copier
// replaced: the values of reg, which lies inside f's halo, in row-major
// order.
func extractRect(f *field.Field, reg grid.Region) []float64 {
	var out []float64
	forEach(reg, func(i, j, k int) { out = append(out, f.Data()[f.IndexOf(i, j, k)]) })
	return out
}

func insertRect(f *field.Field, reg grid.Region, vals []float64) {
	forEach(reg, func(i, j, k int) { f.Data()[f.IndexOf(i, j, k)] = vals[0]; vals = vals[1:] })
}

// TestPackMatchesExtractRect holds the row copier to the element-order
// contract both sides of a message rely on, against the per-element
// reference it replaced: packing a rectangle by its compiled run yields
// exactly extractRect's slice, and unpacking that into an empty field
// stores exactly what insertRect does — for every rank and ghost width,
// over rectangles that are one row, one column, a whole halo edge, the
// interior, a corner block reaching into the halo, and a single point.
func TestPackMatchesExtractRect(t *testing.T) {
	locals := []grid.Region{
		grid.NewRegion(1, sp(5, 17)),
		grid.NewRegion(2, sp(3, 9), sp(11, 16)),
		grid.NewRegion(3, sp(2, 5), sp(7, 11), sp(1, 6)),
	}
	for _, local := range locals {
		for ghost := 0; ghost <= 2; ghost++ {
			f := numbered("F", local, ghost, 1)
			halo := f.Halo()
			// within picks, per dimension of the rank, a sub-span of the halo:
			// 'a' all of it, 'f' its first index, 'l' its last, 'm' the owned
			// block's middle index, 'o' the owned block, 'c' from the halo's
			// first index to the owned block's first.
			within := func(pick string) grid.Region {
				spans := make([]grid.Span, local.Rank)
				for d := range spans {
					h, o := halo.Spans[d], local.Spans[d]
					switch pick[d] {
					case 'a':
						spans[d] = h
					case 'f':
						spans[d] = sp(h.Lo, h.Lo)
					case 'l':
						spans[d] = sp(h.Hi, h.Hi)
					case 'm':
						spans[d] = sp((o.Lo+o.Hi)/2, (o.Lo+o.Hi)/2)
					case 'o':
						spans[d] = o
					case 'c':
						spans[d] = sp(h.Lo, o.Lo)
					}
				}
				return grid.NewRegion(local.Rank, spans...)
			}
			seen := map[string]bool{}
			for _, pick := range []string{"aaa", "ooo", "ccc", "mmm", "moo", "omo", "oom", "faa", "laa", "afa", "ala", "aal", "mao", "cmc"} {
				pick = pick[:local.Rank]
				if seen[pick] {
					continue // the same rectangle at this rank
				}
				seen[pick] = true
				rect := within(pick)
				t.Run(fmt.Sprintf("rank%d/ghost%d/%s", local.Rank, ghost, pick), func(t *testing.T) {
					r := f.Run(rect)
					want := extractRect(f, rect)
					flat := make([]float64, rect.Size())
					copyRun(flat, packed(0, r), f.Data(), r)
					if !slices.Equal(flat, want) {
						t.Fatalf("packed %v of halo %v:\n got %v\nwant %v", rect, halo, flat, want)
					}
					got, ref := fresh("G", local, ghost), fresh("R", local, ghost)
					pr := packPair{doubles: len(flat), runs: []packRun{{id: 0, RectRun: r}}}
					pr.unpack(flat, [][]float64{got.Data()})
					insertRect(ref, rect, want)
					if !slices.Equal(got.Data(), ref.Data()) {
						t.Fatalf("unpacked %v of halo %v: field differs from insertRect's", rect, halo)
					}
				})
			}
		}
	}
}

// TestPackPairConcatenatesInItemOrder: a pair's flat buffer is its runs'
// rectangles back to back in run order, whatever their arrays and shapes,
// and unpack takes it apart the same way.
func TestPackPairConcatenatesInItemOrder(t *testing.T) {
	a := numbered("A", grid.NewRegion(2, sp(1, 6), sp(1, 8)), 1, 100)
	b := numbered("B", grid.NewRegion(3, sp(1, 6), sp(1, 8), sp(1, 3)), 2, 1000)
	c := numbered("C", grid.NewRegion(2, sp(1, 6), sp(1, 8)), 2, 5000)
	src := []*field.Field{a, b, c}
	// Item order is not array order, and the shapes differ: an east edge, a
	// rank-3 halo face, a north halo row.
	items := []struct {
		id   int
		rect grid.Region
	}{
		{2, grid.NewRegion(2, sp(1, 6), sp(8, 8))},
		{1, grid.NewRegion(3, sp(0, 7), sp(9, 10), sp(1, 3))},
		{0, grid.NewRegion(2, sp(0, 0), sp(1, 8))},
	}
	var pr packPair
	var want []float64
	for _, it := range items {
		pr.runs = append(pr.runs, packRun{id: it.id, RectRun: src[it.id].Run(it.rect)})
		pr.doubles += it.rect.Size()
		want = append(want, extractRect(src[it.id], it.rect)...)
	}
	data := func(fs []*field.Field) [][]float64 {
		return [][]float64{fs[0].Data(), fs[1].Data(), fs[2].Data()}
	}
	flat := make([]float64, pr.doubles)
	pr.pack(flat, data(src))
	if !slices.Equal(flat, want) {
		t.Fatalf("pack:\n got %v\nwant %v", flat, want)
	}
	var got, ref []*field.Field
	for _, f := range src {
		got = append(got, fresh(f.Name, f.Local, f.Ghost))
		ref = append(ref, fresh(f.Name, f.Local, f.Ghost))
	}
	pr.unpack(flat, data(got))
	for _, it := range items {
		insertRect(ref[it.id], it.rect, extractRect(src[it.id], it.rect))
	}
	for i := range src {
		if !slices.Equal(got[i].Data(), ref[i].Data()) {
			t.Errorf("unpack: field %s differs from insertRect's", src[i].Name)
		}
	}
}
