package cost

import "commopt/internal/ir"

// eval folds a scalar expression of the walk — a control decision, a
// literal region bound, a scalar assignment or argument — with ir's
// evaluator, the one the runtime runs, so a folded decision is the one
// every processor takes. Its value is statically known when every scalar
// it reads is: a scalar assigned from a reduction depends on array data,
// and so does everything computed from it.
func (w *walker) eval(e ir.Expr) (float64, bool) {
	known := true
	ir.EachScalarRef(e, func(s *ir.ScalarSym) { known = known && !w.unknown[s.ID] })
	if !known {
		return 0, false
	}
	return ir.Eval(e, w.vals), true
}

// assign stores e's value, known or not, to s.
func (w *walker) assign(s *ir.ScalarSym, e ir.Expr) {
	v, ok := w.eval(e)
	w.vals[s.ID], w.unknown[s.ID] = v, !ok
}
