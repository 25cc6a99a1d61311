package comm

import (
	"testing"

	"commopt/internal/ir"
)

func TestBlockAnalysisTables(t *testing.T) {
	as := arrays("A", "B", "C")
	stmts := []ir.Stmt{
		stmt(as["A"], 3, use(as["B"], east)),                     // 0
		stmt(as["B"], 5),                                         // 1
		stmt(as["C"], 7, use(as["B"], east), use(as["A"], west)), // 2
		stmt(as["B"], 1),                                         // 3
	}
	a := AnalyzeBlock(stmts)

	if got := a.LastDefBefore(as["B"], 4); got != 3 {
		t.Errorf("LastDefBefore(B, 4) = %d, want 3", got)
	}
	if got := a.LastDefBefore(as["B"], 3); got != 1 {
		t.Errorf("LastDefBefore(B, 3) = %d, want 1", got)
	}
	if got := a.LastDefBefore(as["B"], 1); got != -1 {
		t.Errorf("LastDefBefore(B, 1) = %d, want -1", got)
	}
	if got := a.LastDefBefore(as["C"], 1); got != -1 {
		t.Errorf("LastDefBefore(C, 1) = %d, want -1", got)
	}

	if got := a.NextDefFrom(as["B"], 0); got != 1 {
		t.Errorf("NextDefFrom(B, 0) = %d, want 1", got)
	}
	if got := a.NextDefFrom(as["B"], 2); got != 3 {
		t.Errorf("NextDefFrom(B, 2) = %d, want 3", got)
	}
	if got := a.NextDefFrom(as["C"], 3); got != len(stmts) {
		t.Errorf("NextDefFrom(C, 3) = %d, want %d (none)", got, len(stmts))
	}

	if !a.Kill[as["A"]] || !a.Kill[as["B"]] || !a.Kill[as["C"]] {
		t.Errorf("kill set %v missing definitions", a.Kill)
	}

	// Weight is the flop sum over [from, to), clamped to the block.
	if got := a.Weight(0, 4); got != 16 {
		t.Errorf("Weight(0, 4) = %d, want 16", got)
	}
	if got := a.Weight(1, 3); got != 12 {
		t.Errorf("Weight(1, 3) = %d, want 12", got)
	}
	if got := a.Weight(2, 2); got != 0 {
		t.Errorf("Weight(2, 2) = %d, want 0", got)
	}
	if got := a.Weight(3, 99); got != 1 {
		t.Errorf("Weight(3, 99) = %d, want 1 (clamped)", got)
	}
	if got := a.Weight(3, 1); got != 0 {
		t.Errorf("Weight(3, 1) = %d, want 0 (inverted)", got)
	}
}
