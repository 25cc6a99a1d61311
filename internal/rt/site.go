package rt

import (
	"slices"

	"commopt/internal/comm"
	"commopt/internal/grid"
	"commopt/internal/ir"
)

// A dispatch site is an IRONMAN transfer: what it means on one processor —
// its pack/unpack schedule — depends on the statement region it resolves
// there, because the rectangles a message carries do. Each transfer carries
// a dense index assigned where the plan is finished, comm.Transfer.Slot,
// and every processor holds one slice of sites by it, so dispatch never
// hashes a pointer or a struct (DESIGN.md §19). What a site compiles to
// belongs to the world, shared by the processor's neighbourhood class
// (class.go); the processor's site keeps the pointers it resolved: one
// under a declared region, the same on every execution, and under a
// literal region — a region slot, ir.RegionExpr.Slot — one per value the
// region has taken. Array statements and reductions are not sites: their
// kernels do not depend on the region (kernel.go), and a statement reads
// its part of the region off the slot (proc.part) at each execution.

// siteCacheLimit bounds the regions a processor remembers of one literal
// region; past it the slot drops them, and every site its table.
const siteCacheLimit = 4096

// foldLiterals copies the program's literal regions with every bound
// evaluated that reads only constants and config variables, which no
// statement can assign (ir.Lower): [i..i, 2..n-1] costs a processor two
// loads and two constants per evaluation.
func (w *world) foldLiterals() {
	w.literals = slices.Clone(w.prog.Literals)
	for id := range w.literals {
		re := &w.literals[id]
		for d := 0; d < re.RankN; d++ {
			for side, e := range re.Bounds[d] {
				fold := true
				ir.EachScalarRef(e, func(s *ir.ScalarSym) { fold = fold && (s.Kind == ir.ConfigVar || s.Kind == ir.ConstVar) })
				if fold {
					re.Bounds[d][side] = &ir.Const{Val: ir.Eval(e, w.configVals)}
				}
			}
		}
	}
}

// literalsOf lists the literal regions a block's statements — and so its
// transfers, each planned for one of them — resolve: the slots a processor
// enters before the block runs.
func literalsOf(stmts []ir.Stmt) (slots []int) {
	for _, s := range stmts {
		// RegionOf has rank 0 where s has no region.
		if re := ir.RegionOf(s); re.Sym == nil && re.RankN > 0 && !slices.Contains(slots, re.Slot) {
			slots = append(slots, re.Slot)
		}
	}
	return slots
}

// regionSlot is one processor's record of one literal region: the distinct
// values it has taken here — moved to the block origin and clipped to its
// reach (nbhdClass.reach: the block grown by the largest offset of a
// transfer under the region), all a transfer's schedule depends on — each
// under a dense index in first-seen order, and the index of the value it
// has now, and that value's part in the block, which is what a statement
// runs over. Sweeps revisit their regions in the same order on every outer
// iteration, so an entry first tries next, the index after the previous
// hit's (the oldest after the newest), and only a misprediction pays for
// the map.
type regionSlot struct {
	ri, next int32
	keys     []grid.Region // by index; keys[0] is unused: index 0 is "nothing of the region inside the reach"
	index    map[grid.Region]int32
	part     grid.Region
}

// nowhere is the clipped region at index 0.
var nowhere = grid.Region{Spans: [grid.MaxRank]grid.Span{{Lo: 1, Hi: 0}, {Lo: 1, Hi: 0}, {Lo: 1, Hi: 0}}}

// part returns p's part of the region re denotes right now: clipped to its
// block, relative to its origin; a literal one's as its slot holds it.
func (p *proc) part(re *ir.RegionExpr) grid.Region {
	if re.Sym != nil {
		return p.cls.clip(p.rel(p.w.regionVals[re.Sym.ID]))
	}
	return p.regions[re.Slot].part
}

// here returns the region re denotes on p right now, relative to p's
// origin; a literal one as its slot holds it, clipped to the reach.
func (p *proc) here(re *ir.RegionExpr) grid.Region {
	if re.Sym != nil {
		return p.rel(p.w.regionVals[re.Sym.ID])
	}
	if s := &p.regions[re.Slot]; s.ri != 0 {
		return s.keys[s.ri]
	}
	return nowhere
}

// Outcomes of entering a slot, indexing procMetrics.regions; the name table
// spells the metrics registry's "region_slot_<outcome>" counters. evals
// counts every entry; one that is neither a hit nor an add found nothing of
// the region inside the reach.
const (
	slotEval = iota
	slotSuccessor
	slotIndex
	slotAdd
)

var slotOutcomes = [...]string{"evals", "hits_successor", "hits_index", "adds"}

// enter evaluates the literal regions of a block about to run and sets each
// slot to the index of its value.
func (p *proc) enter(slots []int) {
	for _, id := range slots {
		re, s := &p.w.literals[id], &p.regions[id]
		reg := grid.Region{Rank: re.RankN}
		for d := range reg.Spans {
			reg.Spans[d] = grid.Span{Lo: 1, Hi: 1} // trailing dimensions, as grid.NewRegion
			if d < re.RankN {
				reg.Spans[d] = grid.Span{Lo: p.evalInt(re.Bounds[d][0], re.Pos, "region bound"), Hi: p.evalInt(re.Bounds[d][1], re.Pos, "region bound")}
			}
		}
		p.regionCounts[slotEval]++
		key := p.ncls.reach[id].clip(p.rel(reg))
		if key.Empty() {
			s.ri, s.part = 0, key
			continue
		}
		n := s.next
		if n != 0 && s.keys[n] == key {
			p.regionCounts[slotSuccessor]++
		} else if i, ok := s.index[key]; ok {
			p.regionCounts[slotIndex]++
			n = i
		} else {
			p.regionCounts[slotAdd]++
			if len(s.keys) > siteCacheLimit {
				p.dropSlot(s)
			}
			if s.keys == nil {
				s.keys, s.index = make([]grid.Region, 1, 8), map[grid.Region]int32{}
			}
			n = int32(len(s.keys))
			s.keys = append(s.keys, key)
			s.index[key] = n
		}
		s.ri, s.next, s.part = n, n+1, p.cls.clip(key)
		if int(s.next) == len(s.keys) {
			s.next = 1
		}
	}
}

// dropSlot forgets every region the slot has met, and with them the site
// tables indexed by the forgotten indices. Emptying a table is always safe
// — it refills from the world's class caches, by the keys its slot holds —
// so every table of the processor goes, not only those under the slot.
func (p *proc) dropSlot(s *regionSlot) {
	*s = regionSlot{}
	for i := range p.xfers {
		p.xfers[i].vals = nil
	}
	p.caches[dropped]++
}

// Schedule lookup outcomes, indexing proc.caches; the name table spells the
// metrics registry's "sched_cache_<outcome>" counters.
//
// hitStatic is a declared region's fixed answer, hitSlot a literal region's
// by its slot's index. hitEmpty is a region that moves nothing on the
// processor (nbhdClass.carries): the site's shared empty value, no lookup.
// hitClass is a processor's first sight of a region another member of its
// class compiled; compiled is a first sight nobody of the class had before,
// a real compilation. dropped counts a slot that forgot its regions.
const (
	hitStatic = iota
	hitSlot
	hitEmpty
	hitClass
	compiled
	dropped
)

var cacheOutcomes = [...]string{"hits_static", "hits_slot", "hits_empty", "hits_class", "compiles", "drops"}

// xferSite is one processor's record of one transfer: the schedules it
// resolved — nil for "not resolved yet" — and the schedule of the DR..SV
// sequence in progress (nil between sequences).
type xferSite struct {
	val  *commSched   // under a declared region: the answer for the rest of the run
	vals []*commSched // under a literal region: by the slot's region index (regionSlot.ri)
	open *commSched
}

// state returns transfer t's schedule, opening it on the first IRONMAN call
// of a DR..SV sequence for the region t denotes on p right now: the site is
// looked up once per sequence, and schedules persist across block
// executions. On first sight the region is clipped to the frame of p's
// neighbourhood class (a literal one is, to the reach within it): the key of
// the transfer's class cache, unless it moves nothing and resolves to the
// transfer's shared empty schedule.
func (p *proc) state(t *comm.Transfer) *commSched {
	x, re := &p.xfers[t.Slot], &t.Region
	if x.open != nil {
		return x.open
	}
	p.openCount++
	at, hit := &x.val, hitStatic
	if re.Sym == nil {
		sl := &p.regions[re.Slot]
		ri := int(sl.ri)
		if ri >= len(x.vals) {
			// One table entry per region the slot has met so far; the next
			// growth is the slot's, not this site's.
			x.vals = append(x.vals, make([]*commSched, max(len(sl.keys), 1)-len(x.vals))...)
		}
		if at, hit = &x.vals[ri], hitSlot; ri == 0 {
			hit = hitEmpty
		}
	}
	if *at == nil {
		nc := p.ncls
		*at = p.w.xferCC[t.Slot].get(nc, t, nc.clip(p.here(re)), &p.caches)
	} else {
		p.caches[hit]++
	}
	x.open = *at
	return x.open
}
