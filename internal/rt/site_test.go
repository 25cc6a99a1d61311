package rt

import (
	"testing"

	"commopt/internal/grid"
)

// row is the region of one wavefront row, the shape literal-bound sites
// resolve.
func row(i int) grid.Region {
	return grid.NewRegion(2, grid.Span{Lo: i, Hi: i}, grid.Span{Lo: 2, Hi: 9})
}

// stats is what one sequence of lookups counted, by outcome.
type stats = [len(cacheOutcomes)]int64

// builds counts the first sights of the site under test: a site asks its
// builder (in the runtime, the class cache) only for a region it has not
// cached.
var builds int

// lookup is one dispatch through a site under test; the value built for a
// row is its number.
func lookup(t *testing.T, s *site[int], m *procMetrics, static bool, i int) {
	t.Helper()
	if v := s.get(static, row(i), m, cacheSched, func(reg grid.Region) int { builds++; return reg.Spans[0].Lo }); v != i {
		t.Fatalf("row %d resolved to the value of row %d", i, v)
	}
}

func TestSiteStaticResolvesOnce(t *testing.T) {
	var s site[int]
	var m procMetrics
	builds = 0
	for n := 0; n < 5; n++ {
		lookup(t, &s, &m, true, 7)
	}
	// A fixed site ignores the key (callers stop evaluating it) and never
	// builds again.
	if v := s.get(true, grid.Region{}, &m, cacheSched, nil); v != 7 {
		t.Fatalf("fixed site resolved to %d, want 7", v)
	}
	if st := m.caches[cacheSched]; st != (stats{hitStatic: 5}) || builds != 1 {
		t.Fatalf("stats = %v with %d builds, want 1 build and 5 static hits", st, builds)
	}
	if s.sweep != nil || s.next != nil {
		t.Fatal("a static site built a sweep cache")
	}
}

func TestSiteSuccessorPrediction(t *testing.T) {
	var s site[int]
	var m procMetrics
	builds = 0
	for pass := 0; pass < 4; pass++ {
		for i := 3; i <= 20; i++ {
			lookup(t, &s, &m, false, i)
		}
	}
	// The first pass compiles every row; every later lookup, the wrap from
	// the last row back to the first included, is a successor hit.
	if st := m.caches[cacheSched]; st != (stats{hitSuccessor: 3 * 18}) || builds != 18 {
		t.Fatalf("stats = %v with %d builds, want 18 builds and 54 successor hits", st, builds)
	}
}

func TestSiteMispredictionStillRight(t *testing.T) {
	var s site[int]
	var m procMetrics
	builds = 0
	for i := 20; i >= 3; i-- { // downto sweep: first-seen order is descending
		lookup(t, &s, &m, false, i)
	}
	for i := 3; i <= 20; i++ { // ascending over the same rows: every successor is wrong
		lookup(t, &s, &m, false, i)
	}
	for i := 30; i >= 3; i-- { // rows 30..21 are new; the oldest entry, row 20, follows the newest
		lookup(t, &s, &m, false, i)
	}
	want := stats{hitMap: 18, hitSuccessor: 18}
	if st := m.caches[cacheSched]; st != want || builds != 18+10 {
		t.Fatalf("stats = %v with %d builds, want %v with 28", st, builds, want)
	}
}

func TestSiteLimitDropsAndRebuilds(t *testing.T) {
	var s site[int]
	var m procMetrics
	st := &m.caches[cacheSched]
	builds = 0
	for i := 0; i < siteCacheLimit; i++ {
		lookup(t, &s, &m, false, i)
	}
	if st[dropped] != 0 || len(s.sweep.index) != siteCacheLimit {
		t.Fatalf("at the limit: %d drops, %d entries", st[dropped], len(s.sweep.index))
	}
	lookup(t, &s, &m, false, siteCacheLimit) // one region too many
	if st[dropped] != 1 || len(s.sweep.index) != 1 || s.next != s.sweep.tail {
		t.Fatalf("past the limit: %d drops, %d entries; want 1 and 1, chained to itself", st[dropped], len(s.sweep.index))
	}
	lookup(t, &s, &m, false, 0) // dropped, so rebuilt
	lookup(t, &s, &m, false, siteCacheLimit)
	if want := siteCacheLimit + 2; builds != want || st[hitMap]+st[hitSuccessor] != 1 {
		t.Fatalf("stats = %v with %d builds, want %d builds and one hit", *st, builds, want)
	}
}
