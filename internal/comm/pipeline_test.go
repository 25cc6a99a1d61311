package comm

import (
	"strings"
	"testing"

	"commopt/internal/ir"
)

func TestDefaultPassNames(t *testing.T) {
	cases := []struct {
		opts Options
		want string
	}{
		{Baseline(), "emit"},
		{RR(), "emit,rr"},
		{CC(), "emit,rr,cc"},
		{PL(), "emit,rr,cc,pl"},
		{Options{RemoveRedundant: true, Combine: true, Pipeline: true, HoistInvariant: true}, "emit,rr,cc,pl,hoist"},
		{Options{Pipeline: true}, "emit,pl"},
	}
	for _, c := range cases {
		if got := strings.Join(DefaultPassNames(c.opts), ","); got != c.want {
			t.Errorf("DefaultPassNames(%v) = %s, want %s", c.opts, got, c.want)
		}
		if got := strings.Join(NewPipeline(c.opts).Names(), ","); got != c.want {
			t.Errorf("NewPipeline(%v).Names() = %s, want %s", c.opts, got, c.want)
		}
	}
}

func TestPipelineForRejectsBadLists(t *testing.T) {
	for _, names := range [][]string{
		nil,                     // empty
		{"rr"},                  // missing emit
		{"rr", "emit"},          // emit not first
		{"emit", "rr", "rr"},    // duplicate
		{"emit", "hoist", "pl"}, // hoist not last
		{"emit", "frobnicate"},  // unknown
	} {
		if _, err := PipelineFor(PL(), names); err == nil {
			t.Errorf("PipelineFor(%v) accepted an invalid pass list", names)
		}
	}
}

func TestPipelineForOverridesOptionFlags(t *testing.T) {
	pl, err := PipelineFor(PL(), []string{"emit", "rr"})
	if err != nil {
		t.Fatal(err)
	}
	opts := pl.Options()
	if !opts.RemoveRedundant || opts.Combine || opts.Pipeline || opts.HoistInvariant {
		t.Fatalf("effective options %+v do not match pass list emit,rr", opts)
	}
	if opts.String() != "rr" {
		t.Fatalf("options string = %q, want rr", opts.String())
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
	if tr.Final() != 1 {
		t.Errorf("final static count %d, want 1", tr.Final())
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

// TestBuildPlanTraceMatchesStaticCount: the whole-program trace's final
// count is exactly the plan's static count, for every canonical option
// set (this is what lets the experiment layer read counts off the trace).
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
	for _, opts := range []Options{Baseline(), RR(), CC(), PL(), PLMaxLatency()} {
		plan := BuildPlan(prog, opts)
		if plan.Trace == nil {
			t.Fatalf("%v: plan has no trace", opts)
		}
		if plan.Trace.Final() != plan.StaticCount {
			t.Errorf("%v: trace final %d != static count %d", opts, plan.Trace.Final(), plan.StaticCount)
		}
	}
}
