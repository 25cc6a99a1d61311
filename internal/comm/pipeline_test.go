package comm

import (
	"strings"
	"testing"

	"commopt/internal/ir"
)

// Every level's plan trace lists exactly the passes its Options enable,
// in canonical order.
func TestDefaultPassNames(t *testing.T) {
	as := arrays("A", "B")
	prog := &ir.Program{Procs: []*ir.Proc{{Name: "main", Body: []ir.Stmt{
		stmt(as["A"], 2, use(as["B"], east)),
	}}}}
	for _, lv := range Levels() {
		want := []string{"emit"}
		for _, p := range []struct {
			on   bool
			name string
		}{
			{lv.Opts.RemoveRedundant, "rr"},
			{lv.Opts.Combine, "cc"},
			{lv.Opts.Pipeline, "pl"},
			{lv.Opts.HoistInvariant, "hoist"},
		} {
			if p.on {
				want = append(want, p.name)
			}
		}
		var got []string
		for _, pt := range BuildPlan(prog, lv.Opts).Trace.Passes {
			got = append(got, pt.Pass)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: trace passes %v, want %v", lv.Name, got, want)
		}
	}
}

// TestPipelineTrace pins the per-pass accounting on a block with known
// redundancy and combinability.
func TestPipelineTrace(t *testing.T) {
	as := arrays("A", "B", "C", "D", "E")
	stmts := []ir.Stmt{
		stmt(as["A"], 2, use(as["B"], east)),
		stmt(as["C"], 2, use(as["B"], east)), // redundant with stmt 0's use
		stmt(as["E"], 2, use(as["D"], east)), // combinable with the kept B@east
	}
	_, tr := blockOf(t, stmts, PL())
	want := []struct {
		pass          string
		before, after int
	}{
		{"emit", 0, 3},
		{"rr", 3, 2},
		{"cc", 2, 1},
		{"pl", 1, 1},
	}
	if len(tr.Passes) != len(want) {
		t.Fatalf("trace has %d passes, want %d: %v", len(tr.Passes), len(want), tr)
	}
	for i, w := range want {
		pt := tr.Passes[i]
		if pt.Pass != w.pass || pt.Before != w.before || pt.After != w.after {
			t.Errorf("pass %d = %s %d->%d, want %s %d->%d", i, pt.Pass, pt.Before, pt.After, w.pass, w.before, w.after)
		}
	}
	if got := passNamed(tr, "emit").Emitted; got != 3 {
		t.Errorf("emit emitted %d, want 3", got)
	}
	if got := passNamed(tr, "rr").Dropped; got != 1 {
		t.Errorf("rr dropped %d, want 1", got)
	}
	if got := passNamed(tr, "cc").Merged; got != 1 {
		t.Errorf("cc merged %d, want 1", got)
	}
	if s := tr.String(); s != "emit 3 → rr 2 → cc 1 → pl 1" {
		t.Errorf("trace string = %q", s)
	}
}

// breakerPass deliberately corrupts the plan, to prove debug mode
// attributes the breakage to the offending pass.
type breakerPass struct{}

func (breakerPass) Name() string { return "breaker" }

func (breakerPass) Run(c *BlockContext) {
	for _, tr := range c.Transfers {
		tr.DNPos = 0 // deliver everything before the block: stale or late
		tr.SRPos = 0
		tr.DRPos = 0
	}
}

func TestDebugCatchesBreakingPass(t *testing.T) {
	as := arrays("A", "B", "C")
	stmts := []ir.Stmt{
		stmt(as["B"], 1),
		stmt(as["C"], 2, use(as["B"], east)),
	}
	pl := NewPipeline(PL())
	pl.passes = append(pl.passes, breakerPass{})
	pl.Debug = true
	_, _, err := planBlock(pl, stmts)
	if err == nil {
		t.Fatal("debug pipeline accepted a plan a pass had broken")
	}
	if !strings.Contains(err.Error(), "pass breaker") {
		t.Fatalf("error %q does not name the breaking pass", err)
	}

	// The same pipeline without the breaker is clean.
	pl = NewPipeline(PL())
	pl.Debug = true
	if _, _, err := planBlock(pl, stmts); err != nil {
		t.Fatalf("clean pipeline reported %v", err)
	}
}

// TestBuildPlanTraceMatchesStaticCount: the whole-program trace's last
// count is exactly the plan's static count, at every level.
func TestBuildPlanTraceMatchesStaticCount(t *testing.T) {
	as := arrays("A", "B", "C")
	body := []ir.Stmt{
		stmt(as["A"], 2, use(as["B"], east)),
		&ir.Repeat{Body: []ir.Stmt{
			stmt(as["C"], 2, use(as["B"], east), use(as["A"], west)),
			stmt(as["A"], 1),
		}},
		stmt(as["C"], 2, use(as["A"], east)),
	}
	prog := &ir.Program{Procs: []*ir.Proc{{Name: "main", Body: body}}}
	for _, lv := range Levels() {
		plan := BuildPlan(prog, lv.Opts)
		if plan.Trace == nil {
			t.Fatalf("%s: plan has no trace", lv.Name)
		}
		if last := plan.Trace.Passes[len(plan.Trace.Passes)-1]; last.After != plan.StaticCount {
			t.Errorf("%s: trace ends at %d != static count %d", lv.Name, last.After, plan.StaticCount)
		}
	}
}
