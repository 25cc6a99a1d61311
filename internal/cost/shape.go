package cost

import (
	"commopt/internal/comm"
	"commopt/internal/grid"
	"commopt/internal/machine"
	"commopt/internal/vtime"
)

// pair is one directed neighbor exchange of a transfer on one processor:
// the peer rank and the payload the pair carries in that direction.
type pair struct {
	peer  int
	bytes int
}

// active mirrors the runtime's participation rule: message-passing
// bindings skip empty pairs entirely, the prototype SHMEM binding
// synchronizes unconditionally.
func (p pair) active(lib *machine.Lib) bool {
	return p.bytes > 0 || lib.UnconditionalSynch
}

// shape is the fully resolved geometry and per-execution cost of one
// (transfer, statement region) pair: every processor's send and receive
// pairs, and the exact communication-overhead durations one execution of
// each IRONMAN call charges under the library binding. The per-call
// accounting mirrors rt's execDR/execSR/execDN/execSV, including the
// per-pair truncation of fractional per-byte costs.
type shape struct {
	reg   grid.Region
	sends [][]pair // by rank
	recvs [][]pair // by rank

	dr, sr, dn, sv []vtime.Duration // per-rank overhead of one call execution

	msgs     int   // messages injected per SR execution, summed over ranks
	bytes    int64 // payload bytes per SR execution, summed over ranks
	rankMsgs []int // messages injected per SR execution, by sending rank
}

type shapeKey struct {
	t   *comm.Transfer
	reg grid.Region
}

// neighborDirs enumerates the mesh displacements a transfer with offset
// off exchanges data with, in the runtime's fixed order: the row
// component, the column component, then the diagonal.
func neighborDirs(off grid.Offset) [][2]int {
	sgn := func(x int) int {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	}
	r, c := sgn(off[0]), sgn(off[1])
	var out [][2]int
	if r != 0 {
		out = append(out, [2]int{r, 0})
	}
	if c != 0 {
		out = append(out, [2]int{0, c})
	}
	if r != 0 && c != 0 {
		out = append(out, [2]int{r, c})
	}
	return out
}

// buildShape resolves transfer t over statement region reg on every
// processor of the mesh and prices one execution of each IRONMAN call.
func buildShape(lay *layout, lib *machine.Lib, t *comm.Transfer, reg grid.Region) *shape {
	n := lay.mesh.Size()
	sh := &shape{
		reg:   reg,
		sends: make([][]pair, n),
		recvs: make([][]pair, n),
		dr:    make([]vtime.Duration, n),
		sr:    make([]vtime.Duration, n),
		dn:    make([]vtime.Duration, n),
		sv:    make([]vtime.Duration, n),

		rankMsgs: make([]int, n),
	}
	for rank := 0; rank < n; rank++ {
		row, col := lay.mesh.Coord(rank)
		iterMe := lay.localRegion(reg, row, col)
		for _, d := range neighborDirs(t.Offset) {
			// Receive side: data this processor needs from the neighbor at
			// displacement d.
			if src, ok := lay.mesh.Neighbor(rank, d[0], d[1]); ok {
				srcRow, srcCol := lay.mesh.Coord(src)
				pr := pair{peer: src}
				for _, a := range t.Items {
					owned := lay.localRegion(lay.Regions[a.Region.ID], srcRow, srcCol)
					rect := iterMe.Shift(t.Offset).Intersect(owned)
					if !rect.Empty() {
						pr.bytes += rect.Size() * 8
					}
				}
				sh.recvs[rank] = append(sh.recvs[rank], pr)
			}
			// Send side: data the neighbor at displacement -d needs from
			// this processor.
			if dst, ok := lay.mesh.Neighbor(rank, -d[0], -d[1]); ok {
				dstRow, dstCol := lay.mesh.Coord(dst)
				iterDst := lay.localRegion(reg, dstRow, dstCol)
				pr := pair{peer: dst}
				for _, a := range t.Items {
					owned := lay.localRegion(lay.Regions[a.Region.ID], row, col)
					rect := iterDst.Shift(t.Offset).Intersect(owned)
					if !rect.Empty() {
						pr.bytes += rect.Size() * 8
					}
				}
				sh.sends[rank] = append(sh.sends[rank], pr)
			}
		}

		// Price one execution of each call on this rank.
		for _, pr := range sh.recvs[rank] {
			if lib.Rendezvous {
				if !pr.active(lib) {
					continue
				}
				if pr.bytes > 0 {
					sh.dr[rank] += lib.DRCost
				} else {
					sh.dr[rank] += lib.SynchEmptyCost
				}
			} else if pr.bytes > 0 {
				sh.dr[rank] += lib.DRCost
			}
		}
		for _, pr := range sh.sends[rank] {
			if !pr.active(lib) {
				continue
			}
			if pr.bytes > 0 {
				sh.sr[rank] += lib.SRCost + machine.PerByteDur(lib.SRPerByte, pr.bytes)
				sh.msgs++
				sh.bytes += int64(pr.bytes)
				sh.rankMsgs[rank]++
			} else {
				sh.sr[rank] += lib.SynchEmptyCost
			}
		}
		for _, pr := range sh.recvs[rank] {
			if !pr.active(lib) {
				continue
			}
			if pr.bytes > 0 {
				sh.dn[rank] += lib.DNCost + machine.PerByteDur(lib.DNPerByte, pr.bytes)
			} else {
				sh.dn[rank] += lib.SynchEmptyCost
			}
		}
		if !lib.Rendezvous {
			for _, pr := range sh.sends[rank] {
				if pr.bytes > 0 {
					sh.sv[rank] += lib.SVCost
				}
			}
		}
	}
	return sh
}

// callCost returns the per-rank overhead vector of one call kind.
func (sh *shape) callCost(k comm.CallKind) []vtime.Duration {
	switch k {
	case comm.DR:
		return sh.dr
	case comm.SR:
		return sh.sr
	case comm.DN:
		return sh.dn
	}
	return sh.sv
}
