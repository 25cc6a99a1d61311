package rt

import (
	"slices"
	"sync"

	"commopt/internal/comm"
	"commopt/internal/field"
	"commopt/internal/grid"
)

// This file implements shape classes (DESIGN.md §19): the programs are SPMD
// over a block distribution, so most processors run the same statements
// over congruent blocks. What the runtime compiles — a kernel per
// (statement, shape class) at setup, a schedule per (transfer,
// neighbourhood class, region) at first sight — is relative to the block
// origin and holds no processor state, so one compilation serves every
// processor of a class. A processor binds itself at use: its field data,
// scalars and origin travel in kctx, its peers come from proc.nbr.

// frame is an extent of the block distribution in the two distributed
// dimensions, relative to some processor's origin: one block, or the 3×3
// neighbourhood around it. An open end absorbs the indices a statement
// region has outside the master span, as the first and last block do.
type frame struct {
	ext            [2]grid.Span
	openLo, openHi [2]bool
}

func (f *frame) clipSpan(d int, declared grid.Span) grid.Span {
	e := f.ext[d]
	if e.Empty() {
		return grid.Span{Lo: 1, Hi: 0}
	}
	if f.openLo[d] {
		e.Lo = declared.Lo
	}
	if f.openHi[d] {
		e.Hi = declared.Hi
	}
	return e.Intersect(declared)
}

// clip returns the part of reg the frame covers. A frame without the first
// mesh column covers nothing of a rank-1 region: rank-1 data lives on
// column 0.
func (f *frame) clip(reg grid.Region) grid.Region {
	reg.Spans[0] = f.clipSpan(0, reg.Spans[0])
	if reg.Rank >= 2 {
		reg.Spans[1] = f.clipSpan(1, reg.Spans[1])
	} else if !f.openLo[1] {
		reg.Spans[0] = grid.Span{Lo: 1, Hi: 0}
	}
	return reg
}

// grow returns block frame f grown by g in each distributed dimension,
// within out, the neighbourhood frame around it: the rows of a statement
// region that transfers with offsets up to g exchange with the block. An
// end stays open where f is (out is there too).
func (f frame) grow(g [2]int, out *frame) frame {
	for d, e := range f.ext {
		if !e.Empty() {
			f.ext[d] = out.clipSpan(d, grid.Span{Lo: e.Lo - g[d], Hi: e.Hi + g[d]})
		}
	}
	return f
}

// shiftDist moves reg by sign·d in the dimensions the region distributes:
// a rank-1 region has no second distributed dimension.
func shiftDist(reg grid.Region, d [2]int, sign int) grid.Region {
	for i := 0; i < 2 && i < reg.Rank; i++ {
		reg.Spans[i].Lo += sign * d[i]
		reg.Spans[i].Hi += sign * d[i]
	}
	return reg
}

// shapeClass is a set of processors with congruent blocks: the same block
// frame (extents, first/last flags) and, for every array, the same owned
// region relative to the block origin — hence the same field extents,
// strides and flat offsets.
type shapeClass struct {
	frame
	id     int32
	locals []grid.Region // by ArraySym.ID: Field.Local − origin
	// The first member's fields and origin, read for layout only (strides,
	// halo containment, flat offsets); nothing compiled holds on to them.
	fields []*field.Field
	org    [2]int
}

// nbhdClass is a set of processors whose 3×3 mesh neighbourhoods are made
// of the same shape classes: what a transfer's schedule depends on.
type nbhdClass struct {
	frame // the neighbourhood's extent
	id    int32
	nb    [3][3]*shapeClass // nb[dr+1][dc+1]; nil off the mesh; nb[1][1] is the processor's own
	d     [3][3][2]int      // the neighbours' origins relative to the processor's...
	fr    [3][3]frame       // ...and their block frames seen from there
	reach []frame           // by literal slot: the frame its regions clip to (site.go)
}

// classify assigns p its block origin and shape class, creating the class,
// with p as the layout representative, when no earlier processor is
// congruent. locals is setup's scratch, left holding p's blocks − origin.
func (w *world) classify(p *proc, locals []grid.Region) {
	var fr frame
	for d, n := range [2]int{w.mesh.Rows, w.mesh.Cols} {
		b := [2]int{p.row, p.col}[d]
		bs := grid.BlockSpan(w.master[d].Len(), n, b)
		p.kctx.org[d] = w.master[d].Lo + bs.Lo - 1
		fr.ext[d] = grid.Span{Lo: 0, Hi: bs.Hi - bs.Lo}
		fr.openLo[d], fr.openHi[d] = b == 0, b == n-1
	}
	for _, a := range w.prog.Arrays {
		locals[a.ID] = fr.clip(p.rel(w.regionVals[a.Region.ID]))
	}
	for _, cl := range w.classes {
		if cl.frame == fr && slices.Equal(cl.locals, locals) {
			p.cls = cl
			break
		}
	}
	if p.cls == nil {
		p.cls = &shapeClass{
			frame: fr, id: int32(len(w.classes)),
			locals: slices.Clone(locals), org: p.kctx.org,
		}
		w.classes = append(w.classes, p.cls)
	}
}

// classifyNbhd assigns p its neighbourhood class once every processor has
// its shape class.
func (w *world) classifyNbhd(p *proc) {
	var key [3][3]int32
	for dr := range p.nbr {
		for dc, nb := range p.nbr[dr] {
			key[dr][dc] = -1
			if nb.slot >= 0 {
				key[dr][dc] = w.procs[nb.rank].cls.id
			}
		}
	}
	key[1][1] = p.cls.id
	if p.ncls = w.nbhds[key]; p.ncls != nil {
		return
	}
	nc := &nbhdClass{frame: p.cls.frame, id: int32(len(w.nbhds))}
	for dr := range p.nbr {
		for dc, nb := range p.nbr[dr] {
			if key[dr][dc] < 0 {
				continue
			}
			q := p
			if nb.slot >= 0 {
				q = w.procs[nb.rank]
			}
			fr := q.cls.frame
			for d := range fr.ext {
				off := q.kctx.org[d] - p.kctx.org[d]
				nc.d[dr][dc][d] = off
				fr.ext[d].Lo += off
				fr.ext[d].Hi += off
				// The neighbourhood reaches to the neighbour's block and is
				// open where that is.
				nc.ext[d].Lo = min(nc.ext[d].Lo, fr.ext[d].Lo)
				nc.ext[d].Hi = max(nc.ext[d].Hi, fr.ext[d].Hi)
				nc.openLo[d] = nc.openLo[d] || fr.openLo[d]
				nc.openHi[d] = nc.openHi[d] || fr.openHi[d]
			}
			nc.nb[dr][dc], nc.fr[dr][dc] = q.cls, fr
		}
	}
	w.nbhds[key] = nc
	p.ncls = nc
}

// classCacheLimit bounds the regions one transfer's class cache remembers,
// as siteCacheLimit bounds a processor's region slot: past it the cache
// drops its entries and rebuilds. Processors keep the schedules they
// already resolved.
const classCacheLimit = 16 * siteCacheLimit

type classKey struct {
	cls int32
	reg grid.Region // clipped to the class's frame, relative to the origin
}

// classCache is the world-level half of one transfer's dispatch site: the
// schedule it compiled to, per neighbourhood class and clipped region. It
// is locked on a processor's first sight of a region only; the processor's
// own site (site.go) keeps the pointer from then on.
type classCache struct {
	mu sync.Mutex
	m  map[classKey]*commSched
	// empty is the schedule wherever the region moves no element, resolved
	// without a lookup; an all-zero-byte one acts alike under every library.
	empty *commSched
}

// get returns transfer t's schedule for neighbourhood class nc and clipped
// region key — empty, unlocked, where the key moves nothing — compiling it
// under the lock when no processor of the class has met the region yet; the
// compilation counts for the processor that ran it, so the processors'
// counts sum to the world's.
func (c *classCache) get(nc *nbhdClass, t *comm.Transfer, key grid.Region, count *[len(cacheOutcomes)]int64) *commSched {
	if !nc.carries(t, key) {
		count[hitEmpty]++
		return c.empty
	}
	k := classKey{nc.id, key}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[k]; ok {
		count[hitClass]++
		return v
	}
	v := nc.geometry(t, key)
	count[compiled]++
	if c.m == nil || len(c.m) >= classCacheLimit {
		c.m = map[classKey]*commSched{}
	}
	c.m[k] = v
	return v
}
