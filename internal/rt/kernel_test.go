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
			kc := newKcompiler(p.cls, p.planFor(s).local)
			if kc.root(s.RHS); !kc.ok {
				t.Fatalf("%s (%s): kernel compilation failed", s.LHS.Name, s.Pos)
			}
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
