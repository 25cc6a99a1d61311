package rt

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"commopt/internal/comm"
	"commopt/internal/grid"
	"commopt/internal/ir"
)

// sweepSrc runs one literal scope of two statements and one transfer over
// rows 3..20, three times, always in the same order.
const sweepSrc = `program sweep;
region R = [1..22, 1..10];
direction north = [-1, 0];
var A, B : [R] float;
procedure main();
begin
  [R] A := Index1;
  for t := 1 to 3 do
    for i := 3 to 20 do
      [i..i, 2..9] begin
        B := A@north + A;
        A := B;
      end;
    end;
  end;
end;
`

// counters reads the named counters of a run's registry.
func counters(res *Result, names ...string) []int64 {
	out := make([]int64, len(names))
	for i, n := range names {
		out[i] = res.Metrics.Counter(n).N
	}
	return out
}

// TestSiteSuccessorPrediction: the first sweep adds every row to the slot
// and compiles it at both statement sites; every later entry, the wrap from
// the last row back to the first included, is a successor hit, and every
// later site lookup an index into the site's table — one evaluation per
// three site lookups. On a 2x2 mesh every row is inside every
// neighbourhood, so each processor counts the same.
func TestSiteSuccessorPrediction(t *testing.T) {
	for _, procs := range []int64{1, 4} {
		res := runSrc(t, sweepSrc, comm.PL(), Config{Procs: int(procs), Metrics: true})
		got := counters(res, "region_slot_evals", "region_slot_adds", "region_slot_hits_successor", "region_slot_hits_index",
			"kernel_cache_hits_slot", "kernel_cache_drops", "sched_cache_hits_slot", "sched_cache_hits_empty")
		if want := []int64{54 * procs, 18 * procs, 36 * procs, 0, 2 * 36 * procs, 0, 36 * procs, 0}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%d procs: evals, adds, successor, index, kernel slot hits, drops, sched slot hits, sched empty = %v, want %v", procs, got, want)
		}
		// A statement's first sight of a row is a compilation, a class hit
		// or, where the row is a neighbour's, the empty plan.
		first := counters(res, "kernel_cache_compiles", "kernel_cache_hits_class", "kernel_cache_hits_empty")
		if sum := first[0] + first[1] + first[2]; sum != 2*18*procs+procs || first[0] == 0 {
			t.Errorf("%d procs: %v compiles, class hits and empty resolves, want them to sum to %d first sights", procs, first, 2*18*procs+procs)
		}
		var want [23]float64
		for i := range want {
			want[i] = float64(i)
		}
		for pass := 0; pass < 3; pass++ {
			for i := 3; i <= 20; i++ {
				want[i] += want[i-1]
			}
		}
		for i := 1; i <= 22; i++ {
			if got := res.Array("A").At(i, 5, 1); got != want[i] {
				t.Errorf("%d procs: A(%d,5) = %v, want %v", procs, i, got, want[i])
			}
		}
	}
}

// updownSrc visits one literal scope, inside a procedure, in three orders.
const updownSrc = `program updown;
region R = [1..32, 1..10];
var A : [R] float;
procedure bump(i : integer);
begin
  [i..i, 2..9] A := A + i;
end;
procedure main();
begin
  for i := 20 downto 3 do bump(i); end;  -- first-seen order is descending
  for i := 3 to 20 do bump(i); end;      -- ascending over the same rows: every successor is wrong
  for i := 30 downto 3 do bump(i); end;  -- rows 30..21 are new; the oldest entry, row 20, follows the newest
end;
`

func TestSiteMispredictionStillRight(t *testing.T) {
	res := runSrc(t, updownSrc, comm.PL(), Config{Procs: 1, Metrics: true})
	got := counters(res, "region_slot_adds", "region_slot_hits_index", "region_slot_hits_successor")
	if want := []int64{18 + 10, 18, 18}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("adds, index hits, successor hits = %v, want %v", got, want)
	}
	a := res.Array("A")
	for i := 1; i <= 32; i++ {
		want := 0
		switch {
		case i >= 3 && i <= 20:
			want = 3 * i
		case i >= 21 && i <= 30:
			want = i
		}
		if got := a.At(i, 4, 1); got != float64(want) {
			t.Errorf("A(%d,4) = %v, want %d", i, got, want)
		}
	}
}

// TestSiteLimitDropsAndRebuilds: a slot remembers siteCacheLimit regions; one
// too many drops them and, with them, the site tables — one drop per kind,
// whatever the number of sites. The second pass finds nothing it could
// mistake for its rows.
func TestSiteLimitDropsAndRebuilds(t *testing.T) {
	src := `program limit;
config var m : integer = 8;
region R = [1..4100, 1..2];
var A, B : [R] float;
procedure main();
begin
  for t := 1 to 2 do
    for i := 1 to m do
      [i..i, 1..2] begin
        B := A + i;
        A := B;
      end;
    end;
  end;
end;
`
	for _, c := range []struct{ m, drops, adds int64 }{
		{siteCacheLimit, 0, siteCacheLimit},
		// The first pass drops at its last row; the second pass re-adds rows
		// 1..limit-1 beside it, drops at row limit, and adds the last again.
		{siteCacheLimit + 1, 2, 2 * (siteCacheLimit + 1)},
	} {
		res := runSrc(t, src, comm.PL(), Config{Procs: 1, Metrics: true, ConfigVars: map[string]float64{"m": float64(c.m)}})
		got := counters(res, "kernel_cache_drops", "region_slot_adds", "sched_cache_drops", "reduce_cache_drops")
		if want := []int64{c.drops, c.adds, c.drops, c.drops}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("m=%d: kernel drops, adds, sched drops, reduce drops = %v, want %v", c.m, got, want)
		}
		a := res.Array("A")
		for _, i := range []int{1, 2, int(c.m) - 1, int(c.m)} {
			if got := a.At(i, 2, 1); got != float64(2*i) {
				t.Errorf("m=%d: A(%d,2) = %v, want %d", c.m, i, got, 2*i)
			}
		}
	}
}

// TestSlotIndexTellsRegionsApart enters one-row and one-column regions over
// ±4096 — among them the pairs of opposite sign that a multiplicative hash
// of (Lo, Hi) with Lo == Hi maps together — ascending and then descending,
// which mispredicts every successor. Whatever the slot remembers, forgets
// (the sweeps exceed siteCacheLimit) or finds by its map, the index it
// stands at must hold the region just evaluated.
func TestSlotIndexTellsRegionsApart(t *testing.T) {
	w := classWorld(t, `program keys;
region R = [1..8, 1..8];
var A : [R] float;
var i, j : integer;
procedure main();
begin
  [i..i, 0..7] A := 1.0;
  [0..7, j..j] A := 2.0;
end;
`, 1, nil)
	p := w.procs[0]
	for slot, re := range w.prog.Literals {
		sym := re.Bounds[slot][0].(*ir.ScalarRef).Sym // i of the row scope, j of the column scope
		enter := func(r int) {
			p.scalars[sym.ID] = float64(r)
			p.enter([]int{slot})
			want := grid.NewRegion(2, grid.Span{Lo: 0, Hi: 7}, grid.Span{Lo: 0, Hi: 7})
			want.Spans[slot] = grid.Span{Lo: r, Hi: r}
			if got := p.here(&re); got != p.rel(want) {
				t.Fatalf("slot %d at %d stands at %v, want %v", slot, r, got, p.rel(want))
			}
		}
		for r := -4096; r <= 4096; r++ {
			enter(r)
		}
		for r := 4096; r >= -4096; r-- {
			enter(r)
		}
	}
}

// TestSiteStaticResolvesOnce: a declared region's site holds one value and
// never grows a table.
func TestSiteStaticResolvesOnce(t *testing.T) {
	w := classWorld(t, jacobiSrc, 1, nil)
	p := w.procs[0]
	p.met = newProcMetrics()
	s := w.plan.Blocks[0].Stmts[0].(*ir.AssignArray)
	first := p.planFor(s)
	for n := 0; n < 4; n++ {
		if pl := p.planFor(s); pl != first {
			t.Fatal("a declared-region site resolved to two plans")
		}
	}
	st := p.met.caches[cacheKernel]
	if st[compiled] != 1 || st[hitStatic] != 4 || p.stmts[s.ID].vals != nil {
		t.Errorf("outcomes %v, table %v; want one compilation, four static hits and no table", st, p.stmts[s.ID].vals)
	}
}

// TestSiteSize: every processor holds a site per statement, transfer and
// reduction of the program, so at 4096 processors its size is memory.
func TestSiteSize(t *testing.T) {
	if n := unsafe.Sizeof(site[*stmtPlan]{}); n > 32 {
		t.Errorf("a site is %d bytes, want at most 32", n)
	}
}

// lifetimeCases are programs whose literal regions change value in every
// way the language allows, each with the values it must leave.
var lifetimeCases = []struct {
	name  string
	src   string
	opts  comm.Options
	check func(t *testing.T, res *Result)
}{
	{
		name: "a procedure called twice whose region reads its parameter",
		src: `program twice;
config var n : integer = 12;
region R = [1..n, 1..n];
direction north = [-1, 0];
var A, B : [R] float;
procedure fill(r : integer; v : float);
begin
  [r..r, 1..n] begin
    B := A@north + v;
    A := B;
  end;
end;
procedure main();
begin
  [R] A := Index1;
  fill(3, 10.0);
  fill(7, 20.0);
end;
`,
		opts: comm.PL(),
		check: func(t *testing.T, res *Result) {
			for i := 1; i <= 12; i++ {
				a, b := float64(i), 0.0
				switch i {
				case 3:
					a, b = 12, 12
				case 7:
					a, b = 26, 26
				}
				if ga, gb := res.Array("A").At(i, 5, 1), res.Array("B").At(i, 5, 1); ga != a || gb != b {
					t.Errorf("A(%d,5), B(%d,5) = %v, %v, want %v, %v", i, i, ga, gb, a, b)
				}
			}
		},
	},
	{
		name: "nested loops whose region reads both indices",
		src: `program pascal;
config var n : integer = 8;
region R = [1..n, 1..n];
direction north = [-1, 0]; west = [0, -1];
var A : [R] float;
procedure main();
begin
  [1..1, 1..n] A := 1.0;
  [1..n, 1..1] A := 1.0;
  for i := 2 to n do
    for j := 2 to n do
      [i..i, j..j] A := A@north + A@west;
    end;
  end;
end;
`,
		opts: comm.PL(),
		check: func(t *testing.T, res *Result) {
			var want [9][9]float64
			for i := 1; i <= 8; i++ {
				for j := 1; j <= 8; j++ {
					if want[i][j] = 1; i > 1 && j > 1 {
						want[i][j] = want[i-1][j] + want[i][j-1]
					}
					if got := res.Array("A").At(i, j, 1); got != want[i][j] {
						t.Errorf("A(%d,%d) = %v, want %v", i, j, got, want[i][j])
					}
				}
			}
			if got := res.Array("A").At(8, 8, 1); got != 3432 { // C(14, 7)
				t.Errorf("A(8,8) = %v, want 3432", got)
			}
		},
	},
	{
		name: "downto",
		src: `program back;
config var n : integer = 12;
region R = [1..n, 1..n];
direction south = [1, 0];
var A : [R] float;
procedure main();
begin
  [n..n, 1..n] A := 1.0;
  for i := n - 1 downto 1 do
    [i..i, 1..n] A := A@south + 1.0;
  end;
end;
`,
		opts: comm.PL(),
		check: func(t *testing.T, res *Result) {
			for i := 1; i <= 12; i++ {
				if got := res.Array("A").At(i, 7, 1); got != float64(12-i+1) {
					t.Errorf("A(%d,7) = %v, want %d", i, got, 12-i+1)
				}
			}
		},
	},
	{
		name: "a region that is empty on every processor",
		src: `program hollow;
config var n : integer = 4;
region R = [1..n, 1..n];
direction north = [-1, 0];
var A : [R] float;
procedure main();
begin
  [R] A := Index1 * 10 + Index2;
  for i := 2 to n - 1 do
    [i..i, 3..n-2] A := A@north + 1.0;   -- n - 2 < 3: no column
  end;
end;
`,
		opts: comm.PL(),
		check: func(t *testing.T, res *Result) {
			for i := 1; i <= 4; i++ {
				for j := 1; j <= 4; j++ {
					if got := res.Array("A").At(i, j, 1); got != float64(10*i+j) {
						t.Errorf("A(%d,%d) = %v, want %d", i, j, got, 10*i+j)
					}
				}
			}
			if res.Messages != 0 {
				t.Errorf("%d messages for a region without elements", res.Messages)
			}
		},
	},
	{
		// The planner hoists a transfer only under a declared region
		// (comm: transferInvariant), so K@north goes to the preheader and
		// the sweep's T@north, under the literal, stays in the loop beside it.
		name: "a preheader transfer beside a literal-region sweep",
		src: `program coef;
config var n : integer = 12;
region R = [1..n, 1..n];
region Int = [2..n, 1..n];
direction north = [-1, 0];
var K, T, F : [R] float;
procedure main();
begin
  [R] K := Index1;
  [R] T := 1.0;
  for i := 2 to n do
    [Int] F := K@north;
    [i..i, 1..n] T := T@north + F;
  end;
end;
`,
		opts: comm.PLHoist(),
		check: func(t *testing.T, res *Result) {
			want := 1.0
			for i := 2; i <= 12; i++ {
				want += float64(i - 1) // F(i) = K(i-1) = i-1
				if got := res.Array("T").At(i, 3, 1); got != want {
					t.Errorf("T(%d,3) = %v, want %v", i, got, want)
				}
			}
		},
	},
	{
		name: "a reduction over a literal region",
		src: `program rowsums;
config var n : integer = 12;
region R = [1..n, 1..n];
var A : [R] float;
var s, acc, top : float;
procedure main();
begin
  [R] A := Index1 * 100 + Index2;
  acc := 0.0;
  for i := 1 to n do
    [i..i, 1..n] s := +<< A;
    acc := acc + s * i;
  end;
  top := 0.0;
  for j := n downto 1 do
    [2..n-1, j..j] s := max<< A;
    top := top + s;
  end;
  writeln(acc, " ", top);
end;
`,
		opts: comm.PL(),
		check: func(t *testing.T, res *Result) {
			acc, top := 0, 0
			for i := 1; i <= 12; i++ {
				acc += i * (12*100*i + 12*13/2) // row i sums to n*100*i + n(n+1)/2
				top += 11*100 + i               // column j's maximum over rows 2..n-1 is A(n-1, j)
			}
			if want := fmt.Sprintf("%d %d", acc, top); strings.TrimSpace(res.Output) != want {
				t.Errorf("output %q, want %q", res.Output, want)
			}
		},
	},
}

// TestSlotLifetime runs every case on meshes that leave a region inside,
// beside and outside a processor's neighbourhood, under both libraries,
// against the values written out above and against two references:
// internal/ref, which has no slots, for arrays (and for output on one
// processor), and the one-worker run for time and messages.
func TestSlotLifetime(t *testing.T) {
	for _, c := range lifetimeCases {
		want := refRun(t, c.src, nil)
		for _, procs := range []int{1, 4, 16} {
			for _, lib := range []string{"pvm", "shmem"} {
				t.Run(fmt.Sprintf("%s/%d/%s", c.name, procs, lib), func(t *testing.T) {
					cfg := Config{Procs: procs, Library: lib}
					got := runSrc(t, c.src, c.opts, cfg)
					c.check(t, got)
					for _, d := range refDiffs(got, want) {
						t.Error(d)
					}
					if procs == 1 && got.Output != want.Output {
						t.Errorf("output %q, internal/ref's %q", got.Output, want.Output)
					}
					cfg.SchedWorkers = 1
					one := runSrc(t, c.src, c.opts, cfg)
					if got.ExecTime != one.ExecTime || got.Messages != one.Messages {
						t.Errorf("time %v and %d messages, the one-worker run's %v and %d", got.ExecTime, got.Messages, one.ExecTime, one.Messages)
					}
				})
			}
		}
	}
}

// TestHoistedTransferStaysBesideLiteralSweep pins what the fifth lifetime
// case relies on: of its two transfers only the declared-region one moves
// to the loop's preheader.
func TestHoistedTransferStaysBesideLiteralSweep(t *testing.T) {
	c := lifetimeCases[4]
	res := runSrc(t, c.src, c.opts, Config{Procs: 4, Profile: true})
	hoisted, inLoop := 0, 0
	for _, row := range res.Profile {
		if row.Hoisted {
			hoisted++
		} else {
			inLoop++
		}
	}
	if hoisted != 1 || inLoop != 1 {
		t.Errorf("%d hoisted and %d in-loop transfers, want 1 and 1: %+v", hoisted, inLoop, res.Profile)
	}
}
