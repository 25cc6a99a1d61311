package rt

import (
	"slices"

	"commopt/internal/grid"
	"commopt/internal/ir"
)

// A dispatch site is a node of the lowered program whose meaning on one
// processor depends only on the statement region it resolves there: an
// IRONMAN transfer (its pack/unpack schedule), an array statement (its
// local region and kernel) or a reduction (its partial kernel). Each
// carries a dense index assigned where the node is created —
// comm.Transfer.Slot, ir.AssignArray.ID, ir.Reduce.ID — and every
// processor holds one slice of sites per kind, so dispatch never hashes a
// pointer or a struct (DESIGN.md §19). What a site compiles to belongs to
// the world, shared by the processor's shape class (class.go); the
// processor's site keeps the pointers it resolved: one under a declared
// region, the same on every execution, and under a literal region — a
// region slot, ir.RegionExpr.Slot — one per value the region has taken.

// siteCacheLimit bounds the regions a processor remembers of one literal
// region; past it the slot drops them, and every site under it its table.
const siteCacheLimit = 4096

// site is one processor's record of one dispatch site. The zero T stands
// for "not resolved yet": every resolved value is a non-nil pointer.
type site[T comparable] struct {
	val  T   // under a declared region: the answer for the rest of the run
	vals []T // under a literal region: by the slot's region index (regionSlot.ri)
}

// foldLiterals copies the program's literal regions with every bound
// evaluated that reads only constants and config variables, which no
// statement can assign (ir.Lower): [i..i, 2..n-1] costs a processor two
// loads and two constants per evaluation.
func (w *world) foldLiterals(ev *scalarEnv) {
	w.literals = slices.Clone(w.prog.Literals)
	for id := range w.literals {
		re := &w.literals[id]
		for d := 0; d < re.RankN; d++ {
			for side, e := range re.Bounds[d] {
				fold := true
				ir.EachScalarRef(e, func(s *ir.ScalarSym) { fold = fold && (s.Kind == ir.ConfigVar || s.Kind == ir.ConstVar) })
				if fold {
					re.Bounds[d][side] = &ir.Const{Val: ev.eval(e)}
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
// values it has taken here — moved to the block origin and clipped to the
// neighbourhood frame, which is what a transfer's schedule depends on; a
// statement clips further, to the block — each under a dense index in
// first-seen order, and the index of the value it has now. Sweeps revisit
// their regions in the same order on every outer iteration, so an entry
// first tries next, the index after the previous hit's (the oldest after
// the newest), and only a misprediction pays for the map.
type regionSlot struct {
	ri, next int32
	keys     []grid.Region // by index; keys[0] is unused: index 0 is "nothing of the region inside the neighbourhood"
	index    map[grid.Region]int32
}

// nowhere is the clipped region at index 0.
var nowhere = grid.Region{Spans: [grid.MaxRank]grid.Span{{Lo: 1, Hi: 0}, {Lo: 1, Hi: 0}, {Lo: 1, Hi: 0}}}

// here returns the region re denotes on p right now, relative to p's
// origin; a literal one as its slot holds it, clipped to the neighbourhood.
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
// the region inside the neighbourhood.
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
				reg.Spans[d] = grid.Span{Lo: p.evalInt(re.Bounds[d][0], "region bound"), Hi: p.evalInt(re.Bounds[d][1], "region bound")}
			}
		}
		p.met.countSlot(slotEval)
		key := p.ncls.clip(p.rel(reg))
		if key.Empty() {
			s.ri = 0
			continue
		}
		n := s.next
		if n != 0 && s.keys[n] == key {
			p.met.countSlot(slotSuccessor)
		} else if i, ok := s.index[key]; ok {
			p.met.countSlot(slotIndex)
			n = i
		} else {
			p.met.countSlot(slotAdd)
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
		s.ri, s.next = n, n+1
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
	for i := range p.stmts {
		p.stmts[i].vals = nil
	}
	for i := range p.reduces {
		p.reduces[i].vals = nil
	}
	for kind := range cacheKinds {
		p.met.count(kind, dropped)
	}
}

// Site kinds and lookup outcomes, indexing procMetrics.caches; the name
// tables spell the metrics registry's "<kind>_cache_<outcome>" counters.
const (
	cacheSched = iota
	cacheKernel
	cacheReduce
)

// hitStatic is a declared region's fixed answer, hitSlot a literal region's
// by its slot's index. hitEmpty is a region that clips to nothing on the
// processor: the site's shared empty value, no lookup. hitClass is a
// processor's first sight of a region another member of its class compiled;
// compiled is a first sight nobody of the class had before, a real
// compilation. dropped counts, in every kind, a slot that forgot its regions.
const (
	hitStatic = iota
	hitSlot
	hitEmpty
	hitClass
	compiled
	dropped
)

var (
	cacheKinds    = [...]string{"sched", "kernel", "reduce"}
	cacheOutcomes = [...]string{"hits_static", "hits_slot", "hits_empty", "hits_class", "compiles", "drops"}
)

// count records one lookup outcome; a no-op unless Config.Metrics is on.
func (m *procMetrics) count(kind, outcome int) {
	if m != nil {
		m.caches[kind][outcome]++
	}
}

func (m *procMetrics) countSlot(outcome int) {
	if m != nil {
		m.regions[outcome]++
	}
}

// resolve returns what site s means for the region re denotes on p right
// now. On first sight the region is clipped to fr, the frame of p's class
// cls, which is the key of the class's cache cc; an empty key — nothing of
// the region concerns the processor — resolves to the site's shared empty
// value without an entry there.
func resolve[T comparable](p *proc, s *site[T], cc *classCache[T], fr *frame, cls int32, re *ir.RegionExpr, kind int, build func(grid.Region) T) T {
	var zero T
	at, hit := &s.val, hitStatic
	if re.Sym == nil {
		sl := &p.regions[re.Slot]
		ri := int(sl.ri)
		if ri >= len(s.vals) {
			// One table entry per region the slot has met so far; the next
			// growth is the slot's, not this site's.
			s.vals = append(s.vals, make([]T, max(len(sl.keys), 1)-len(s.vals))...)
		}
		if at, hit = &s.vals[ri], hitSlot; ri == 0 {
			hit = hitEmpty
		}
	}
	if *at == zero {
		*at = cc.get(cls, fr.clip(p.here(re)), p.met, kind, build)
	} else {
		p.met.count(kind, hit)
	}
	return *at
}
