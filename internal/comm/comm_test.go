package comm

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"commopt/internal/grid"
	"commopt/internal/ir"
)

// Test scaffolding: hand-built IR blocks. The planner only consults a
// statement's LHS, Uses, Flops and Region, so statements are built
// directly without a parsed RHS.

var (
	testRegion = &ir.RegionSym{Name: "R", RankN: 2}
	east       = grid.Offset{0, 1, 0}
	west       = grid.Offset{0, -1, 0}
	north      = grid.Offset{-1, 0, 0}
)

func arrays(names ...string) map[string]*ir.ArraySym {
	out := map[string]*ir.ArraySym{}
	for i, n := range names {
		out[n] = &ir.ArraySym{Name: n, Region: testRegion, ID: i}
	}
	return out
}

// stmt builds an array assignment "lhs := f(uses...)" with the given
// per-element flop weight.
func stmt(lhs *ir.ArraySym, flops int, uses ...ir.ArrayUse) *ir.AssignArray {
	return &ir.AssignArray{
		Region: ir.RegionExpr{Sym: testRegion},
		LHS:    lhs,
		Uses:   uses,
		Flops:  flops,
	}
}

func use(a *ir.ArraySym, off grid.Offset) ir.ArrayUse { return ir.ArrayUse{Array: a, Off: off} }

// planBlock builds the plan of a program whose main procedure is the one
// basic block stmts, and returns that block's schedule and the plan's
// per-pass trace.
func planBlock(pl *Pipeline, stmts []ir.Stmt) (*BlockPlan, *Trace, error) {
	plan, err := pl.Build(&ir.Program{Procs: []*ir.Proc{{Name: "main", Body: stmts}}})
	if err != nil {
		return nil, nil, err
	}
	return plan.Blocks[0], plan.Trace, nil
}

// passNamed returns the trace entry of the named stage, or nil.
func passNamed(tr *Trace, name string) *PassTrace {
	for i := range tr.Passes {
		if tr.Passes[i].Pass == name {
			return &tr.Passes[i]
		}
	}
	return nil
}

// blockOf runs the pipeline for opts over one block, with inter-pass
// validity checking enabled.
func blockOf(t *testing.T, stmts []ir.Stmt, opts Options) (*BlockPlan, *Trace) {
	t.Helper()
	pl := NewPipeline(opts)
	pl.Debug = true
	bp, tr, err := planBlock(pl, stmts)
	if err != nil {
		t.Fatalf("pipeline failed under %v: %v", opts, err)
	}
	return bp, tr
}

// mustBlock builds a block schedule without inter-pass checking, for
// tests that corrupt the result before handing it to CheckPlan.
func mustBlock(t *testing.T, stmts []ir.Stmt, opts Options) *BlockPlan {
	t.Helper()
	bp, _, err := planBlock(NewPipeline(opts), stmts)
	if err != nil {
		t.Fatalf("pipeline failed under %v: %v", opts, err)
	}
	return bp
}

func planOf(t *testing.T, stmts []ir.Stmt, opts Options) *BlockPlan {
	t.Helper()
	bp, _ := blockOf(t, stmts, opts)
	plan := &Plan{Blocks: []*BlockPlan{bp}}
	if fs := CheckPlan(plan); len(fs) > 0 {
		t.Fatalf("plan invalid under %v: %v", opts, fs)
	}
	return bp
}

func TestBaselineOneTransferPerUse(t *testing.T) {
	as := arrays("A", "B", "C")
	stmts := []ir.Stmt{
		stmt(as["A"], 2, use(as["B"], east)),
		stmt(as["C"], 2, use(as["B"], east)), // same value again
	}
	bp := planOf(t, stmts, Baseline())
	if len(bp.Transfers) != 2 {
		t.Fatalf("baseline transfers = %d, want 2 (no redundancy removal)", len(bp.Transfers))
	}
}

func TestRedundantRemoval(t *testing.T) {
	as := arrays("A", "B", "C", "D")
	stmts := []ir.Stmt{
		stmt(as["A"], 2, use(as["B"], east)),
		stmt(as["C"], 2, use(as["B"], east)), // redundant: B unmodified
		stmt(as["B"], 1),                     // B written
		stmt(as["D"], 2, use(as["B"], east)), // fresh comm required again
	}
	bp := planOf(t, stmts, RR())
	if len(bp.Transfers) != 2 {
		t.Fatalf("rr transfers = %d, want 2", len(bp.Transfers))
	}
	if bp.Transfers[0].UseIdx != 0 || bp.Transfers[1].UseIdx != 3 {
		t.Fatalf("rr kept uses at %d and %d, want 0 and 3", bp.Transfers[0].UseIdx, bp.Transfers[1].UseIdx)
	}
}

func TestRedundancyIsOffsetSpecific(t *testing.T) {
	as := arrays("A", "B", "C")
	stmts := []ir.Stmt{
		stmt(as["A"], 2, use(as["B"], east)),
		stmt(as["C"], 2, use(as["B"], west)), // different ghost region
	}
	bp := planOf(t, stmts, RR())
	if len(bp.Transfers) != 2 {
		t.Fatalf("rr transfers = %d, want 2 (east does not satisfy west)", len(bp.Transfers))
	}
}

func TestCombiningSameOffset(t *testing.T) {
	as := arrays("A", "B", "C", "D", "E")
	stmts := []ir.Stmt{
		stmt(as["A"], 2, use(as["B"], east)),
		stmt(as["C"], 2, use(as["D"], east)),
		stmt(as["E"], 2, use(as["B"], west)),
	}
	bp := planOf(t, stmts, CC())
	if len(bp.Transfers) != 2 {
		t.Fatalf("cc transfers = %d, want 2 ({B,D}@east, {B}@west)", len(bp.Transfers))
	}
	var combined *Transfer
	for _, tr := range bp.Transfers {
		if len(tr.Items) == 2 {
			combined = tr
		}
	}
	if combined == nil || combined.Offset != east {
		t.Fatalf("expected a combined east transfer, got %v", bp.Transfers)
	}
}

func TestCombiningBlockedByDefinition(t *testing.T) {
	as := arrays("A", "B", "C", "D")
	stmts := []ir.Stmt{
		stmt(as["A"], 2, use(as["B"], east)),
		stmt(as["D"], 1),                     // D written after the group's anchor...
		stmt(as["C"], 2, use(as["D"], east)), // ...so D@east cannot join it
	}
	bp := planOf(t, stmts, CC())
	if len(bp.Transfers) != 2 {
		t.Fatalf("cc transfers = %d, want 2 (combining is illegal)", len(bp.Transfers))
	}
}

func TestPipelineHoistsSends(t *testing.T) {
	as := arrays("A", "B", "C", "D")
	stmts := []ir.Stmt{
		stmt(as["B"], 5),                     // B produced here
		stmt(as["A"], 5),                     // unrelated computation
		stmt(as["C"], 2, use(as["B"], east)), // B@east used here
		stmt(as["D"], 2, use(as["A"], east)),
	}
	bp := planOf(t, stmts, Options{RemoveRedundant: true, Pipeline: true})
	for _, tr := range bp.Transfers {
		switch tr.Items[0] {
		case as["B"]:
			if tr.SRPos != 1 || tr.DNPos != 2 {
				t.Errorf("B transfer SR=%d DN=%d, want SR=1 DN=2", tr.SRPos, tr.DNPos)
			}
		case as["A"]:
			if tr.SRPos != 2 || tr.DNPos != 3 {
				t.Errorf("A transfer SR=%d DN=%d, want SR=2 DN=3", tr.SRPos, tr.DNPos)
			}
		}
	}
}

func TestSVBeforeOverwrite(t *testing.T) {
	as := arrays("A", "B", "C")
	stmts := []ir.Stmt{
		stmt(as["C"], 2, use(as["B"], east)),
		stmt(as["B"], 1), // B overwritten: SV must land before this
	}
	bp := planOf(t, stmts, PL())
	tr := bp.Transfers[0]
	if tr.SVPos != 1 {
		t.Fatalf("SV=%d, want 1 (before B's overwrite)", tr.SVPos)
	}
}

func TestMaxLatencyRejectsUnequalWindows(t *testing.T) {
	as := arrays("A", "B", "C", "D", "E")
	// B@east used immediately (zero distance); D@east used after heavy
	// computation (large distance): combining would shrink D's window.
	stmts := []ir.Stmt{
		stmt(as["A"], 10, use(as["B"], east)),
		stmt(as["C"], 10),
		stmt(as["E"], 10, use(as["D"], east)),
	}
	mc := planOf(t, stmts, PL())
	ml := planOf(t, stmts, PLMaxLatency())
	if len(mc.Transfers) != 1 {
		t.Fatalf("max-combining transfers = %d, want 1", len(mc.Transfers))
	}
	if len(ml.Transfers) != 2 {
		t.Fatalf("max-latency transfers = %d, want 2 (combining rejected)", len(ml.Transfers))
	}
}

func TestMaxLatencyKeepsEqualWindows(t *testing.T) {
	as := arrays("A", "B", "D")
	// B@east and D@east are both first used in the same statement with no
	// prior definitions: identical windows, so combining costs nothing.
	stmts := []ir.Stmt{
		stmt(as["A"], 10),
		stmt(as["A"], 10, use(as["B"], east), use(as["D"], east)),
	}
	ml := planOf(t, stmts, PLMaxLatency())
	if len(ml.Transfers) != 1 {
		t.Fatalf("max-latency transfers = %d, want 1 (equal windows combine)", len(ml.Transfers))
	}
}

func TestCheckPlanCatchesLateDelivery(t *testing.T) {
	as := arrays("A", "B")
	stmts := []ir.Stmt{stmt(as["A"], 2, use(as["B"], east))}
	bp := mustBlock(t, stmts, Baseline())
	bp.Transfers[0].DNPos = 1 // delivered after the use
	assertRule(t, CheckPlan(&Plan{Blocks: []*BlockPlan{bp}}), RuleStale)
}

func TestCheckPlanCatchesStaleSend(t *testing.T) {
	as := arrays("A", "B", "C")
	stmts := []ir.Stmt{
		stmt(as["B"], 1),
		stmt(as["C"], 2, use(as["B"], east)),
	}
	bp := mustBlock(t, stmts, PL())
	bp.Transfers[0].SRPos = 0 // captured before B's definition: stale
	bp.Transfers[0].DRPos = 0
	assertRule(t, CheckPlan(&Plan{Blocks: []*BlockPlan{bp}}), RuleStale)
}

func TestCheckPlanCatchesInFlightOverwrite(t *testing.T) {
	as := arrays("A", "B", "C")
	stmts := []ir.Stmt{
		stmt(as["C"], 2, use(as["B"], east)),
		stmt(as["B"], 1),
	}
	bp := mustBlock(t, stmts, PL())
	bp.Transfers[0].SVPos = 2 // SV after B's overwrite
	assertRule(t, CheckPlan(&Plan{Blocks: []*BlockPlan{bp}}), RuleInflight)
}

// TestCheckPlanCatchesBoundWrite: inside one block, a statement whose
// literal region bound reads k may not follow an assignment to k — the
// runtime evaluates the region once, at block entry. One finding per
// statement, though both bounds of the row read k.
func TestCheckPlanCatchesBoundWrite(t *testing.T) {
	as := arrays("B")
	k, n := &ir.ScalarSym{Name: "k"}, &ir.ScalarSym{Name: "n"}
	setK := &ir.AssignScalar{LHS: k, RHS: &ir.Const{Val: 5}}
	row := stmt(as["B"], 1)
	row.Region = ir.RegionExpr{RankN: 2}
	row.Region.Bounds[0] = [2]ir.Expr{&ir.ScalarRef{Sym: k}, &ir.ScalarRef{Sym: k}}
	row.Region.Bounds[1] = [2]ir.Expr{&ir.Const{Val: 1}, &ir.ScalarRef{Sym: n}}
	// Build splits the block after setK, so the one block is written out:
	// the baseline schedule of statements that read no neighbour.
	bp := &BlockPlan{Stmts: []ir.Stmt{setK, row}, Calls: make([][]Call, 3)}
	fs := CheckPlan(&Plan{Blocks: []*BlockPlan{bp}})
	if len(fs) != 1 || fs[0].Rule != RuleBoundWrite {
		t.Fatalf("want one %s finding, got %v", RuleBoundWrite, fs)
	}
	// The same statements split where SplitSegments splits them are clean.
	for _, seg := range SplitSegments([]ir.Stmt{setK, row}) {
		if fs := CheckPlan(&Plan{Blocks: []*BlockPlan{mustBlock(t, seg.Block, Baseline())}}); len(fs) > 0 {
			t.Errorf("split block flagged: %v", fs)
		}
	}
}

func TestSplitSegments(t *testing.T) {
	as := arrays("A", "B")
	s1 := stmt(as["A"], 1)
	s2 := stmt(as["B"], 1)
	loop := &ir.Repeat{Body: []ir.Stmt{s1}}
	segs := SplitSegments([]ir.Stmt{s1, s2, loop, s1})
	if len(segs) != 3 {
		t.Fatalf("segments = %d, want 3", len(segs))
	}
	if len(segs[0].Block) != 2 || segs[1].Control != loop || len(segs[2].Block) != 1 {
		t.Fatalf("unexpected segmentation %+v", segs)
	}
}

// TestSplitSegmentsAtBoundWrite: a block ends after a scalar assignment to a
// variable a literal region bound of the body reads — in a sum, here — and
// only there: inside a block a literal region is one index set.
func TestSplitSegmentsAtBoundWrite(t *testing.T) {
	as := arrays("A", "B")
	k, other := &ir.ScalarSym{Name: "k"}, &ir.ScalarSym{Name: "other"}
	row := ir.RegionExpr{RankN: 1}
	row.Bounds[0] = [2]ir.Expr{&ir.ScalarRef{Sym: k}, &ir.Binary{X: &ir.ScalarRef{Sym: k}, Y: &ir.Const{Val: 1}}}
	s1, s2 := stmt(as["A"], 1), stmt(as["B"], 1)
	s1.Region, s2.Region = row, row
	setK := &ir.AssignScalar{LHS: k, RHS: &ir.Const{Val: 5}}
	setOther := &ir.AssignScalar{LHS: other, RHS: &ir.Const{Val: 5}}
	segs := SplitSegments([]ir.Stmt{s1, setOther, setK, s2, setK})
	if len(segs) != 2 || len(segs[0].Block) != 3 || segs[0].Block[2] != setK || len(segs[1].Block) != 2 {
		t.Fatalf("unexpected segmentation %+v, want [s1 setOther setK] [s2 setK]", segs)
	}
	if !regionsCompatible(s1.Region, s2.Region) || regionsCompatible(s1.Region, ir.RegionExpr{RankN: 1, Slot: 1}) {
		t.Error("literal regions are compatible exactly when they share a slot")
	}
}

// blockSpec drives the property test's random block generator.
type blockSpec struct {
	Seed int64
}

// Generate implements quick.Generator.
func (blockSpec) Generate(r *rand.Rand, _ int) interface{} {
	return blockSpec{Seed: r.Int63()}
}

func buildRandomBlock(seed int64) []ir.Stmt {
	r := rand.New(rand.NewSource(seed))
	pool := []*ir.ArraySym{}
	for i := 0; i < 5; i++ {
		pool = append(pool, &ir.ArraySym{Name: string(rune('A' + i)), Region: testRegion, ID: i})
	}
	offs := []grid.Offset{east, west, north, {1, 0, 0}, {1, 1, 0}, {-1, -1, 0}}
	n := 1 + r.Intn(12)
	var out []ir.Stmt
	for i := 0; i < n; i++ {
		lhs := pool[r.Intn(len(pool))]
		var uses []ir.ArrayUse
		seen := map[ir.ArrayUse]bool{}
		for k := r.Intn(4); k > 0; k-- {
			u := ir.ArrayUse{Array: pool[r.Intn(len(pool))], Off: offs[r.Intn(len(offs))]}
			if !seen[u] {
				seen[u] = true
				uses = append(uses, u)
			}
		}
		out = append(out, stmt(lhs, 1+r.Intn(20), uses...))
	}
	return out
}

// TestPlanPropertyValidity: every optimization subset yields a valid plan
// on arbitrary blocks — checked after *every* pipeline stage, not just
// the final plan — and the count relationships of the paper hold:
// baseline >= rr >= max-latency >= max-combining, the static count never
// increases across the rr→cc stage boundary, and pipelining never
// changes the transfer count.
func TestPlanPropertyValidity(t *testing.T) {
	prop := func(spec blockSpec) bool {
		stmts := buildRandomBlock(spec.Seed)
		counts := map[string]int{}
		all := []Options{
			{Combine: true}, {Pipeline: true}, {RemoveRedundant: true, Pipeline: true},
			{Combine: true, Pipeline: true, Heuristic: MaxLatencyHiding},
		}
		for _, lv := range Levels() {
			all = append(all, lv.Opts)
		}
		for _, opts := range all {
			// Debug mode re-runs the validity checker after every stage, so
			// any intermediate breakage surfaces as a per-pass error here.
			pl := NewPipeline(opts)
			pl.Debug = true
			bp, tr, err := planBlock(pl, stmts)
			if err != nil {
				t.Logf("seed %d opts %+v: %v", spec.Seed, opts, err)
				return false
			}
			if fs := CheckPlan(&Plan{Blocks: []*BlockPlan{bp}}); len(fs) > 0 {
				t.Logf("seed %d opts %+v: %v", spec.Seed, opts, fs)
				return false
			}
			// The trace must account for the block exactly: each stage's
			// After is the next stage's Before, and the last stage's After
			// is the final transfer count.
			for i, pt := range tr.Passes {
				if i > 0 && pt.Before != tr.Passes[i-1].After {
					t.Logf("seed %d opts %+v: trace discontinuity at %s: %+v", spec.Seed, opts, pt.Pass, tr.Passes)
					return false
				}
			}
			if last := tr.Passes[len(tr.Passes)-1].After; last != len(bp.Transfers) {
				t.Logf("seed %d opts %+v: trace ends at %d != %d transfers", spec.Seed, opts, last, len(bp.Transfers))
				return false
			}
			// Static counts are monotonically non-increasing across the
			// rr→cc stage boundary (cc only ever drops or merges).
			if cc := passNamed(tr, "cc"); cc != nil && cc.After > cc.Before {
				t.Logf("seed %d opts %+v: cc grew the count %d -> %d", spec.Seed, opts, cc.Before, cc.After)
				return false
			}
			if rr := passNamed(tr, "rr"); rr != nil && rr.After > rr.Before {
				t.Logf("seed %d opts %+v: rr grew the count %d -> %d", spec.Seed, opts, rr.Before, rr.After)
				return false
			}
		}
		for _, lv := range Levels() {
			bp, tr, err := planBlock(NewPipeline(lv.Opts), stmts)
			if err != nil {
				t.Logf("seed %d opts %+v: %v", spec.Seed, lv.Opts, err)
				return false
			}
			if passNamed(tr, "emit").After != len(planEmitOnly(stmts)) {
				t.Logf("seed %d: emit trace disagrees with baseline emission", spec.Seed)
				return false
			}
			counts[lv.Name] = len(bp.Transfers)
		}
		if counts["rr"] > counts["baseline"] || counts["cc"] > counts["rr"] {
			t.Logf("seed %d: counts not monotone: %v", spec.Seed, counts)
			return false
		}
		if counts["pl"] != counts["cc"] {
			t.Logf("seed %d: pipelining changed the count: %v", spec.Seed, counts)
			return false
		}
		if counts["pl-maxlat"] < counts["cc"] || counts["pl-maxlat"] > counts["rr"] {
			t.Logf("seed %d: max-latency outside [cc, rr]: %v", spec.Seed, counts)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// planEmitOnly returns the transfers of the bare emit stage, the
// reference for the trace's baseline count.
func planEmitOnly(stmts []ir.Stmt) []*Transfer {
	bp, _, err := planBlock(NewPipeline(Baseline()), stmts)
	if err != nil {
		panic(err)
	}
	return bp.Transfers
}

// Every level of the -O table — the paper's ladder, the max-latency
// heuristic and the hoisting extension — resolves by name, and the error
// for an unknown name lists exactly the table's names, in order.
func TestOptionsByName(t *testing.T) {
	want := map[string]string{
		"baseline": "baseline", "rr": "rr", "cc": "cc", "pl": "pl",
		"pl-maxlat": "pl/max-latency", "pl+hoist": "pl",
	}
	if len(Levels()) != len(want) {
		t.Errorf("%d levels, want %d", len(Levels()), len(want))
	}
	for _, lv := range Levels() {
		opts, err := OptionsByName(lv.Name)
		if err != nil {
			t.Errorf("OptionsByName(%q): %v", lv.Name, err)
		}
		if opts.String() != want[lv.Name] {
			t.Errorf("OptionsByName(%q) = %v, want %s", lv.Name, opts, want[lv.Name])
		}
	}
	_, err := OptionsByName("o3")
	if err == nil {
		t.Fatal("OptionsByName accepted an unknown level")
	}
	known := "(known: " + strings.Join(LevelNames(), ", ") + ")"
	if !strings.HasSuffix(err.Error(), known) || known != "(known: baseline, rr, cc, pl, pl-maxlat, pl+hoist)" {
		t.Errorf("unknown-level error %q does not end in the table's names", err)
	}
}
