package rt

import "commopt/internal/field"

// This file is the communication engine's compiled data path: each
// (transfer, statement region) is lowered once per neighbourhood class
// (class.go) into a commSched (cached in the transfer's site, site.go)
// whose pairs carry precompiled pack/unpack run lists over the fields'
// backing []float64 slices, addressed by array ID and flat offset. A send
// then packs every rectangle of a message into one contiguous flat buffer
// with plain copy loops, and the receiver unpacks by its mirrored run list
// — no per-message geometry derivation, no per-rectangle slice allocation.
// Both sides of a pair compute identical rectangles from replicated state
// (see geometry), so the pack order on the sender always matches the
// unpack order on the receiver. The element order within a rectangle is
// row-major, which commpack_test.go holds the row copier to.

// packRun is one rectangle's compiled copy plan: a field.RectRun over the
// backing slice of the executing processor's field of one array. The flat
// offsets are the same on every processor of the shape class.
type packRun struct {
	id int // ArraySym.ID
	field.RectRun
}

// packPair describes the data a transfer moves between a processor and one
// peer: the compiled run list covering every non-empty rectangle of the
// transfer's items, in item order. The peer is named by its mesh
// displacement; the processor using the pair finds rank and slots in its
// own nbr table, and skips the pair when it has no such neighbour.
type packPair struct {
	dr, dc  int // the peer is proc.nbr[dr][dc]
	bytes   int
	doubles int // total payload length of the flat buffer
	runs    []packRun
}

// copyRun copies one rectangle onto another of the same shape, a contiguous
// row at a time.
func copyRun(dst []float64, to field.RectRun, src []float64, from field.RectRun) {
	for a := 0; a < from.N0; a++ {
		db, sb := to.Base+a*to.S0, from.Base+a*from.S0
		for m := 0; m < from.N1; m++ {
			copy(dst[db:db+to.RowLen], src[sb:sb+from.RowLen])
			db += to.S1
			sb += from.S1
		}
	}
}

// packed is r's rectangle laid out contiguously from offset off of a flat
// buffer, rows in row-major order.
func packed(off int, r field.RectRun) field.RectRun {
	return field.RectRun{Base: off, S0: r.N1 * r.RowLen, N0: r.N0, S1: r.RowLen, N1: r.N1, RowLen: r.RowLen}
}

// pack copies every run's rectangle of the fields data into flat, which
// must hold exactly pr.doubles elements, in item order.
func (pr *packPair) pack(flat []float64, data [][]float64) {
	off := 0
	for _, r := range pr.runs {
		copyRun(flat, packed(off, r.RectRun), data[r.id], r.RectRun)
		off += r.N0 * r.N1 * r.RowLen
	}
}

// unpack is the mirror of pack: it scatters flat back into the receiving
// fields by the pair's run list.
func (pr *packPair) unpack(flat []float64, data [][]float64) {
	off := 0
	for _, r := range pr.runs {
		copyRun(data[r.id], r.RectRun, flat, packed(off, r.RectRun))
		off += r.N0 * r.N1 * r.RowLen
	}
}

// commSched is the compiled communication schedule of one transfer over
// one resolved statement region, for the processors of one neighbourhood
// class.
type commSched struct {
	sends []packPair
	recvs []packPair
}
