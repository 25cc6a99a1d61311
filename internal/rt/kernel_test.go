package rt

import (
	"testing"

	"commopt/internal/ir"
	"commopt/internal/programs"
)

// TestScalarOperandsAreValues pins the operand rule at compile level on two
// swm statements. A scalar operand of an arithmetic node is a value — no
// statement here broadcasts one into a row — and only a right operand that
// is itself a computed row reserves a scratch slot. When every Binary node
// reserved one, CU needed 3 slots and UNEW 10.
func TestScalarOperandsAreValues(t *testing.T) {
	swm, err := programs.ByName("swm")
	if err != nil {
		t.Fatal(err)
	}
	w := classWorld(t, swm.Source, 1, swm.TestConfig)
	p := w.procs[0]
	want := map[string]int{
		"CU":   0, // 0.5 * (P + P@west) * U: value∘(view+view), then row∘view
		"UNEW": 3, // UOLD + s*(Z + Z@south)*(CV + ...) - s*(H@east - H): the three row right operands
	}
	seen := map[string]bool{}
	for _, bp := range w.plan.Blocks {
		for _, st := range bp.Stmts {
			s, isAssign := st.(*ir.AssignArray)
			if !isAssign {
				continue
			}
			slots, checked := want[s.LHS.Name]
			if !checked {
				continue
			}
			seen[s.LHS.Name] = true
			kc := newKcompiler(p.cls, s.Region.Rank(), s.Pos)
			kc.root(s.RHS)
			if kc.slots != slots {
				t.Errorf("%s (%s): %d scratch slots, want %d", s.LHS.Name, s.Pos, kc.slots, slots)
			}
			if kc.fills != 0 {
				t.Errorf("%s (%s): %d scalar operands were broadcast into rows", s.LHS.Name, s.Pos, kc.fills)
			}
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("swm has statements for %v only, want %v", seen, want)
	}
}

// TestValuesAtTheirLevel pins the classifier on the index expressions of
// four initialisation statements: each subtree is computed at the loop
// level where it varies. A subtree that reads an outer index and no array
// is a value, one per row; one that reads only the row's own index is a
// run row, one per run; no intrinsic is left per element.
func TestValuesAtTheirLevel(t *testing.T) {
	cases := []struct {
		bench, lhs string
		rowValues  int // values that read an outer index
		runs       int // run rows
		slots      int // scratch rows, the run rows among them
		fills      int
	}{
		// 5000.0 + (250.0 * sin(Index1 * 0.05)) * cos(Index2 * 0.05):
		// value ∘ run row, then value ∘ row into dst.
		{"swm", "P", 1, 1, 1, 0},
		// -6.0 * cos(Index1 * 0.04): the whole right-hand side is a value.
		{"swm", "V", 1, 0, 0, 1},
		// 2.5 + 0.5 * sin(Index1 * 0.03) * sin(Index2 * 0.03): P's shape.
		{"simple", "E", 1, 1, 1, 0},
		// Rank 3, rows along Index3: (0.02 * sin(0.3 * Index1)) *
		// cos(0.3 * Index2) is one value, sin(0.2 * Index3) the run row.
		{"sp", "U1", 1, 1, 1, 0},
	}
	for _, tc := range cases {
		bench, err := programs.ByName(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		w := classWorld(t, bench.Source, 1, bench.TestConfig)
		p := w.procs[0]
		var s *ir.AssignArray
		for _, bp := range w.plan.Blocks {
			for _, st := range bp.Stmts {
				if a, isAssign := st.(*ir.AssignArray); isAssign && a.LHS.Name == tc.lhs && s == nil {
					s = a
				}
			}
		}
		if s == nil {
			t.Fatalf("%s has no statement assigning %s", tc.bench, tc.lhs)
		}
		kc := newKcompiler(p.cls, s.Region.Rank(), s.Pos)
		kc.root(s.RHS)
		rowValues := 0
		var walk func(e ir.Expr)
		walk = func(e ir.Expr) {
			switch kc.level(e) {
			case levelValue:
				if kc.reads(e)&readsOuter != 0 {
					rowValues++
				}
				return
			case levelRun, levelView:
				return
			}
			switch e := e.(type) {
			case *ir.Unary:
				walk(e.X)
			case *ir.Binary:
				walk(e.X)
				walk(e.Y)
			case *ir.Intrinsic:
				t.Errorf("%s %s (%s): an intrinsic is computed per element", tc.bench, tc.lhs, s.Pos)
			}
		}
		walk(s.RHS)
		got := [4]int{rowValues, kc.runs, kc.slots, kc.fills}
		if want := [4]int{tc.rowValues, tc.runs, tc.slots, tc.fills}; got != want {
			t.Errorf("%s %s (%s): row values, run rows, slots, fills = %v, want %v", tc.bench, tc.lhs, s.Pos, got, want)
		}
	}
}
