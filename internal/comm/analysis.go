package comm

import (
	"sort"

	"commopt/internal/ir"
)

// BlockAnalysis is the shared dataflow substrate of one basic block,
// computed once per block and consumed by every pipeline pass — never by
// the plan checker, which derives its own: definition tables (last-write
// and next-write queries), first-use indexes, the block's kill set, and
// prefix-summed flop weights for latency-hiding distance queries. Passes must not
// mutate the statements, so the analysis stays valid across the whole
// pipeline.
type BlockAnalysis struct {
	Stmts []ir.Stmt

	// Kill is the set of arrays the block assigns.
	Kill map[*ir.ArraySym]bool

	defs  map[*ir.ArraySym][]int // ascending statement indexes of definitions
	flops []int                  // flops[i] = total flop weight of Stmts[:i]
}

// AnalyzeBlock computes the block analysis for a straight-line statement
// sequence.
func AnalyzeBlock(stmts []ir.Stmt) *BlockAnalysis {
	a := &BlockAnalysis{
		Stmts: stmts,
		Kill:  map[*ir.ArraySym]bool{},
		defs:  map[*ir.ArraySym][]int{},
		flops: make([]int, len(stmts)+1),
	}
	for i, s := range stmts {
		a.flops[i+1] = a.flops[i] + ir.FlopsOf(s)
		if d := ir.DefOf(s); d != nil {
			a.defs[d] = append(a.defs[d], i)
			a.Kill[d] = true
		}
	}
	return a
}

// LastDefBefore returns the index of the last definition of arr strictly
// before statement pos, or -1 if there is none.
func (a *BlockAnalysis) LastDefBefore(arr *ir.ArraySym, pos int) int {
	ds := a.defs[arr]
	i := sort.SearchInts(ds, pos)
	if i == 0 {
		return -1
	}
	return ds[i-1]
}

// NextDefFrom returns the index of the first definition of arr at or
// after statement pos, or len(Stmts) if there is none.
func (a *BlockAnalysis) NextDefFrom(arr *ir.ArraySym, pos int) int {
	ds := a.defs[arr]
	i := sort.SearchInts(ds, pos)
	if i == len(ds) {
		return len(a.Stmts)
	}
	return ds[i]
}

// Weight returns the flop weight of statements [from, to) — the paper's
// latency-hiding "distance" between two call positions. Out-of-range or
// inverted bounds clamp to zero weight.
func (a *BlockAnalysis) Weight(from, to int) int {
	n := len(a.Stmts)
	from = max(min(from, n), 0)
	to = max(min(to, n), from)
	return a.flops[to] - a.flops[from]
}
