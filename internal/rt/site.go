package rt

import (
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
// processor's site keeps the pointers it resolved.

// siteCacheLimit bounds the regions one literal-bound site remembers;
// past it the site drops its cache and rebuilds.
const siteCacheLimit = 4096

// site is one processor's cache for one dispatch site, keyed by the
// statement region clipped to the processor's class frame. A site whose
// region is declared resolves once: fixed is set and val is the answer for
// the rest of the run. A literal-bound site (wavefront sweeps) remembers
// every non-empty clipped region it has met, chained in first-seen order.
// Sweeps revisit their regions in the same order on every outer iteration,
// so a lookup first tries next, the entry that followed the previous hit,
// and only a misprediction pays for the index.
type site[T any] struct {
	fixed bool
	val   T
	next  *sweepEntry[T]
	sweep *sweepCache[T]
}

// sweepCache is the part of a literal-bound site only mispredictions and
// additions touch.
type sweepCache[T any] struct {
	tail *sweepEntry[T] // the newest entry; tail.next is the oldest
	// index finds an entry by its region's hash. Entries verify their key,
	// so a hash collision only costs the displaced region a rebuild.
	index map[uint64]*sweepEntry[T]
}

type sweepEntry[T any] struct {
	key  grid.Region
	val  T
	next *sweepEntry[T] // first-seen order, circular
}

func hashRegion(r grid.Region) uint64 {
	h := uint64(r.Rank)
	for _, s := range r.Spans {
		h = (h ^ uint64(s.Lo)) * 0x9e3779b97f4a7c15
		h = (h ^ uint64(s.Hi)) * 0x9e3779b97f4a7c15
	}
	return h
}

// Site kinds and lookup outcomes, indexing procMetrics.caches; the name
// tables spell the metrics registry's "<kind>_cache_<outcome>" counters.
const (
	cacheSched = iota
	cacheKernel
	cacheReduce
)

// hitEmpty is a region that clips to nothing on the processor: the site's
// shared empty value, no lookup. hitClass is a processor's first sight of a
// region another member of its class compiled; compiled is a first sight
// nobody of the class had before, a real compilation.
const (
	hitStatic = iota
	hitSuccessor
	hitMap
	hitEmpty
	hitClass
	compiled
	dropped
)

var (
	cacheKinds    = [...]string{"sched", "kernel", "reduce"}
	cacheOutcomes = [...]string{"hits_static", "hits_successor", "hits_map", "hits_empty", "hits_class", "compiles", "drops"}
)

// count records one lookup outcome; a no-op unless Config.Metrics is on.
func (m *procMetrics) count(kind, outcome int) {
	if m != nil {
		m.caches[kind][outcome]++
	}
}

// get returns the site's value for key, calling build and caching its
// result on first sight; static says the site's region is declared, which
// fixes the site for good. A fixed site ignores key, so callers skip
// evaluating it. m and kind say where to count a hit; build counts its own
// outcome.
func (s *site[T]) get(static bool, key grid.Region, m *procMetrics, kind int, build func(grid.Region) T) T {
	if s.fixed {
		m.count(kind, hitStatic)
		return s.val
	}
	if e := s.next; e != nil {
		outcome := hitSuccessor
		if e.key != key {
			e, outcome = s.sweep.index[hashRegion(key)], hitMap
		}
		if e != nil && e.key == key {
			m.count(kind, outcome)
			s.next = e.next
			return e.val
		}
	}
	v := build(key)
	if static {
		s.fixed, s.val = true, v
		return v
	}
	e := &sweepEntry[T]{key: key, val: v}
	e.next = e
	if sw := s.sweep; sw == nil || len(sw.index) >= siteCacheLimit {
		if sw != nil {
			m.count(kind, dropped)
		}
		s.sweep = &sweepCache[T]{index: map[uint64]*sweepEntry[T]{}}
	} else {
		e.next = sw.tail.next // the oldest entry follows the newest
		sw.tail.next = e
	}
	s.sweep.tail = e
	s.sweep.index[hashRegion(key)] = e
	s.next = e.next
	return v
}

// resolve returns what site s means for the region re denotes on p right
// now: the region is moved to p's origin and clipped to fr, the frame of
// p's class cls, which is the key both of p's own cache and of the class's,
// cc. An empty key — nothing of the region concerns the processor —
// resolves to the site's shared empty value without an entry anywhere.
func resolve[T any](p *proc, s *site[T], cc *classCache[T], fr *frame, cls int32, re ir.RegionExpr, kind int, build func(grid.Region) T) T {
	var key grid.Region
	if !s.fixed {
		if key = fr.clip(p.rel(p.evalRegion(re))); key.Empty() {
			p.met.count(kind, hitEmpty)
			if re.Sym != nil {
				s.fixed, s.val = true, cc.empty
			}
			return cc.empty
		}
	}
	return s.get(re.Sym != nil, key, p.met, kind, func(key grid.Region) T {
		return cc.get(cls, key, p.met, kind, build)
	})
}
