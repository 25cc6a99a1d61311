package comm

import (
	"os"
	"path/filepath"
	"testing"

	"commopt/internal/diag"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/programs"
	"commopt/internal/zpl"
)

// Mutation tests: each hand-corrupted plan must be flagged by CheckPlan
// with the corruption's own rule ID, so a checker regression on any one
// rule is caught by name.

func verifyBlock(bp *BlockPlan) []diag.Finding {
	return CheckPlan(&Plan{Blocks: []*BlockPlan{bp}})
}

func hasRule(fs []diag.Finding, rule string) bool {
	for _, f := range fs {
		if f.Rule == rule {
			return true
		}
	}
	return false
}

func rulesOf(fs []diag.Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Rule)
	}
	return out
}

// assertRule requires the rule to be among the findings.
func assertRule(t *testing.T, fs []diag.Finding, rule string) {
	t.Helper()
	if !hasRule(fs, rule) {
		t.Errorf("expected %s among findings, got %v", rule, rulesOf(fs))
	}
}

func TestVerifyCleanBlock(t *testing.T) {
	as := arrays("A", "B", "C")
	stmts := []ir.Stmt{
		stmt(as["B"], 1, use(as["A"], east)),
		stmt(as["C"], 1, use(as["A"], east)),
		stmt(as["A"], 1, use(as["B"], grid.Offset{})),
		stmt(as["C"], 1, use(as["A"], east)),
	}
	for _, opts := range []Options{Baseline(), RR(), CC(), PL(), PLMaxLatency()} {
		bp := mustBlock(t, stmts, opts)
		if fs := verifyBlock(bp); len(fs) != 0 {
			t.Errorf("%v: clean plan flagged: %v", opts, fs)
		}
	}
}

// Dropping the only transfer of a use must fire plan-missing-transfer.
func TestVerifyDroppedTransfer(t *testing.T) {
	as := arrays("A", "B")
	bp := mustBlock(t, []ir.Stmt{stmt(as["B"], 1, use(as["A"], east))}, Baseline())
	bp.Transfers = nil
	fs := verifyBlock(bp)
	assertRule(t, fs, RuleMissing)
	if hasRule(fs, RuleStale) {
		t.Errorf("dropped-only transfer should be missing, not stale: %v", rulesOf(fs))
	}
}

// Dropping the post-kill transfer when an earlier (now stale) one still
// matches the use must fire plan-stale-transfer — the rr failure mode of
// treating a killed transfer as still covering.
func TestVerifyStaleAfterKill(t *testing.T) {
	as := arrays("A", "B", "C")
	stmts := []ir.Stmt{
		stmt(as["B"], 1, use(as["A"], east)),
		stmt(as["A"], 1, use(as["B"], grid.Offset{})),
		stmt(as["C"], 1, use(as["A"], east)),
	}
	bp := mustBlock(t, stmts, RR())
	if len(bp.Transfers) != 2 {
		t.Fatalf("expected 2 transfers across the kill, got %v", bp.Transfers)
	}
	// Drop the fresh transfer (the one sent after the kill at stmt 1).
	var kept []*Transfer
	for _, tr := range bp.Transfers {
		if tr.SRPos <= 1 {
			kept = append(kept, tr)
		}
	}
	bp.Transfers = kept
	fs := verifyBlock(bp)
	assertRule(t, fs, RuleStale)
	if hasRule(fs, RuleMissing) {
		t.Errorf("a matching (if stale) transfer exists; should not be missing: %v", rulesOf(fs))
	}
}

// Appending an array nobody reads at the transfer's offset must fire
// plan-overwide-merge — the cc failure mode of merging past the union of
// the sources' element sets.
func TestVerifyOverwideMerge(t *testing.T) {
	as := arrays("A", "B", "C")
	stmts := []ir.Stmt{
		stmt(as["B"], 1, use(as["A"], east)),
	}
	bp := mustBlock(t, stmts, CC())
	bp.Transfers[0].Items = append(bp.Transfers[0].Items, as["C"])
	fs := verifyBlock(bp)
	assertRule(t, fs, RuleOverwide)
	if hasRule(fs, RuleMissing) || hasRule(fs, RuleStale) {
		t.Errorf("coverage is intact; only the merge is over-wide: %v", rulesOf(fs))
	}
}

// Hoisting a send before a write to the carried array must fire
// plan-inflight-clobber — the pl failure mode of moving SR past a kill.
func TestVerifySendHoistedPastKill(t *testing.T) {
	as := arrays("A", "B", "C")
	stmts := []ir.Stmt{
		stmt(as["A"], 1, use(as["B"], grid.Offset{})),
		stmt(as["C"], 1, use(as["A"], east)),
	}
	bp := mustBlock(t, stmts, Baseline())
	tr := bp.Transfers[0]
	tr.DRPos, tr.SRPos = 0, 0 // legal ordering, illegal motion past the def at 0
	fs := verifyBlock(bp)
	assertRule(t, fs, RuleInflight)
}

// Delivering after the use must fire plan-stale-transfer.
func TestVerifyLateDelivery(t *testing.T) {
	as := arrays("A", "B")
	bp := mustBlock(t, []ir.Stmt{stmt(as["B"], 1, use(as["A"], east))}, Baseline())
	bp.Transfers[0].DNPos = 1 // block end, past the use at 0
	fs := verifyBlock(bp)
	assertRule(t, fs, RuleStale)
	if hasRule(fs, RuleOverwide) {
		t.Errorf("timing corruption must not masquerade as over-wide merge: %v", rulesOf(fs))
	}
}

// Breaking DR <= SR <= DN must fire plan-call-order.
func TestVerifyCallOrder(t *testing.T) {
	as := arrays("A", "B")
	bp := mustBlock(t, []ir.Stmt{stmt(as["B"], 1, use(as["A"], east))}, Baseline())
	bp.Transfers[0].DRPos = bp.Transfers[0].SRPos + 1
	assertRule(t, verifyBlock(bp), RuleCallOrder)
}

// Marking a transfer hoisted while its array is written in the block must
// fire plan-hoisted-variant.
func TestVerifyHoistedVariant(t *testing.T) {
	as := arrays("A", "B", "C")
	stmts := []ir.Stmt{
		stmt(as["C"], 1, use(as["A"], east)),
		stmt(as["A"], 1, use(as["B"], grid.Offset{})),
	}
	bp := mustBlock(t, stmts, Baseline())
	bp.Transfers[0].Hoisted = true
	assertRule(t, verifyBlock(bp), RuleHoistedVariant)
}

// TestVerifyRuleIDsDistinct pins the eight rule IDs: mutation coverage
// depends on each corruption keeping its own name, and Rules lists each
// exactly once.
func TestVerifyRuleIDsDistinct(t *testing.T) {
	ids := []string{RuleCallSet, RuleCallOrder, RuleInflight, RuleHoistedVariant,
		RuleMissing, RuleStale, RuleOverwide, RuleBoundWrite}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate rule ID %s", id)
		}
		seen[id] = true
	}
	listed := Rules()
	if len(listed) != len(ids) {
		t.Errorf("Rules() lists %d rules, want %d", len(listed), len(ids))
	}
	for _, r := range listed {
		if !seen[r[0]] || r[1] == "" {
			t.Errorf("Rules() entry %q: unknown ID or no doc", r[0])
		}
	}
}

// TestVerifyBenchmarksAllLevels runs the checker over every benchmark,
// example and regress program at every optimization level, plain and
// inlined — the translation-validation acceptance bar for the shipped
// pipeline. On inlined plans it is also where the checker's own
// sameElementSet is held to the passes' regionsCompatible.
func TestVerifyBenchmarksAllLevels(t *testing.T) {
	levels := []Options{
		Baseline(), RR(), CC(), PL(), PLMaxLatency(),
		{RemoveRedundant: true, Combine: true, Pipeline: true, HoistInvariant: true},
	}
	srcs := map[string]string{}
	for _, b := range programs.Suite() {
		srcs[b.Name] = b.Source
	}
	for _, pat := range []string{"../../examples/zpl/*.zpl", "../../testdata/regress/*.zpl"} {
		files, _ := filepath.Glob(pat)
		if len(files) == 0 {
			t.Fatalf("%s: no programs", pat)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			srcs[filepath.Base(f)] = string(data)
		}
	}
	for name, src := range srcs {
		ast, err := zpl.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		prog, err := ir.Lower(ast)
		if err != nil {
			t.Fatalf("%s: lower: %v", name, err)
		}
		for _, variant := range []*ir.Program{prog, ir.Inline(prog)} {
			for _, opts := range levels {
				plan := BuildPlan(variant, opts)
				if fs := CheckPlan(plan); len(fs) != 0 {
					t.Errorf("%s (inlined %v) under %v: %d findings, first: %v",
						name, variant != prog, opts, len(fs), fs[0])
				}
			}
		}
	}
}
