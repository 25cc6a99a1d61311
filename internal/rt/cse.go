package rt

import (
	"fmt"
	"math"
	"strings"

	"commopt/internal/ir"
)

// Cross-statement common-subexpression elimination for fused runs.
//
// A fused run compiles every member statement through ONE kcompiler
// (compileFused), which arms the memo below. Whenever the generic tree
// compiler reaches a vector-valued Unary/Binary/Intrinsic node, it keys
// the subtree structurally; a repeat of a subtree already compiled —
// within one member's RHS or across members of the run — reuses the
// first compilation's row instead of re-evaluating. tomcatv's residual
// recomputes 2.0*X in both RX terms; swm's height update reads U+U@east
// twice; the memo computes each once per row.
//
// Correctness:
//
//   - Values are bit-identical to independent evaluation: a memo hit
//     replays a side-effect-free computation over inputs that have not
//     changed (see the kill rule), so skipping the recomputation cannot
//     change a bit. TestFusionMatchesUnfused pins this against the
//     unfused oracle.
//   - Staleness across members is impossible: after compiling each
//     member, killMemo drops every entry whose read set contains the
//     member's LHS. A later member re-compiles (and so re-evaluates)
//     any subtree that reads the freshly written array. Reads of a
//     member's OWN LHS need no extra care — storeRow stages the row, so
//     within-row reads see pre-store values exactly as the unfused path
//     does, and cross-row own reads are storeFull, excluded statically.
//   - Staleness across rows is impossible: fusedKernel.run clears
//     kctx.memo before each row, and a wrapper recomputes unless its bit
//     is set. The bits live in the executing processor's kctx, not in the
//     wrapper — a fused kernel is shared by a shape class, whose members
//     sweep concurrently — so scratch reuse across kernels, runs,
//     iterations and processors can never masquerade as a valid row.
//
// Scalars cannot change inside a run (runs hold only array assignments),
// so ScalarRef keys need no kill handling; Const keys use the exact bit
// pattern so 0.5 and 0.5000001 never collide.

// memoEntry is one memoized subtree: the wrapped row evaluator and the
// IDs of the arrays it reads (the kill rule's input).
type memoEntry struct {
	v     vec
	reads []int
}

// cseBenefits walks a run's statements in program order and returns the
// structural keys that repeat while their inputs are unchanged — the
// only subtrees worth a memo wrapper. Everything else compiles exactly
// as the unfused path would: wrapping a never-reused node costs a
// closure hop, a generation check and a scratch row per row, which is
// pure loss. The walk mirrors the compiler precisely: it skips the
// children of a repeated subtree (a memo hit never recompiles them) and
// kills alive keys that read each statement's LHS after the statement,
// exactly as compileFused does.
func cseBenefits(stmts []*ir.AssignArray) map[string]bool {
	alive := map[string][]int{} // key -> arrays the subtree reads
	benefit := map[string]bool{}
	// mark records one occurrence, reporting true — a hit, stop
	// recursing — when the key was already alive.
	mark := func(e ir.Expr) bool {
		key, reads, ok := exprKey(e)
		if !ok {
			return false
		}
		if _, hit := alive[key]; hit {
			benefit[key] = true
			return true
		}
		alive[key] = reads
		return false
	}
	var walk func(e ir.Expr)
	walk = func(e ir.Expr) {
		switch e := e.(type) {
		case *ir.Unary:
			if !scalarOnly(e) && !mark(e) {
				walk(e.X)
			}
		case *ir.Binary:
			if !scalarOnly(e) && !mark(e) {
				walk(e.X)
				walk(e.Y)
			}
		case *ir.Intrinsic:
			if !scalarOnly(e) && !mark(e) {
				for _, a := range e.Args {
					walk(a)
				}
			}
		}
	}
	kill := func(id int) {
		for key, reads := range alive {
			for _, r := range reads {
				if r == id {
					delete(alive, key)
					break
				}
			}
		}
	}
	for _, s := range stmts {
		walk(s.RHS)
		kill(s.LHS.ID)
	}
	return benefit
}

// memoize wraps the compilation of one vector-valued subtree. Outside a
// fused compile (memo nil) or for unkeyable trees it is the identity.
// Otherwise a repeated key returns the prior wrapper, and a fresh key
// compiles once into a dedicated scratch row guarded by its bit of
// kctx.memo (past 64 wrappers a run's further repeats simply re-evaluate).
func (kc *kcompiler) memoize(e ir.Expr, build func() vec) vec {
	if kc.memo == nil {
		return build()
	}
	key, reads, keyed := exprKey(e)
	if !keyed || !kc.benefit[key] {
		return build()
	}
	if ent := kc.memo[key]; ent != nil {
		return ent.v
	}
	inner := build()
	if inner == nil || !kc.ok || kc.memos == 64 {
		return inner
	}
	slot, bit := kc.slot(), uint64(1)<<kc.memos
	kc.memos++
	L := kc.L
	wrapped := func(c *kctx, dst []float64) []float64 {
		row := c.scratch[slot*L : slot*L+L]
		if c.memo&bit == 0 {
			inner(c, row)
			c.memo |= bit
		}
		return row
	}
	kc.memo[key] = &memoEntry{v: wrapped, reads: reads}
	return wrapped
}

// killMemo drops every memo entry that reads the given array, called
// after compiling each fused member with the member's LHS: subtrees over
// the written array must re-evaluate in later members.
func (kc *kcompiler) killMemo(arrayID int) {
	for key, ent := range kc.memo {
		for _, r := range ent.reads {
			if r == arrayID {
				delete(kc.memo, key)
				break
			}
		}
	}
}

// exprKey renders a structural key for one expression tree and collects
// the array IDs it reads. Two trees share a key iff they compute the
// same value at every point of the region (same operators, same symbol
// identities, same offsets, same constant bits). Reduce — which never
// appears below statement level — and any future node kind conservatively
// report unkeyable.
func exprKey(e ir.Expr) (string, []int, bool) {
	var b strings.Builder
	var reads []int
	if !exprKeyInto(e, &b, &reads) {
		return "", nil, false
	}
	return b.String(), reads, true
}

func exprKeyInto(e ir.Expr, b *strings.Builder, reads *[]int) bool {
	switch e := e.(type) {
	case *ir.Const:
		fmt.Fprintf(b, "c%x", math.Float64bits(e.Val))
	case *ir.ScalarRef:
		fmt.Fprintf(b, "s%d", e.Sym.ID)
	case *ir.ArrayRef:
		fmt.Fprintf(b, "a%d@%d,%d,%d", e.Array.ID, e.Off[0], e.Off[1], e.Off[2])
		*reads = append(*reads, e.Array.ID)
	case *ir.IndexRef:
		fmt.Fprintf(b, "i%d", e.Dim)
	case *ir.Unary:
		fmt.Fprintf(b, "u%d(", e.Op)
		if !exprKeyInto(e.X, b, reads) {
			return false
		}
		b.WriteByte(')')
	case *ir.Binary:
		fmt.Fprintf(b, "b%d(", e.Op)
		if !exprKeyInto(e.X, b, reads) {
			return false
		}
		b.WriteByte(',')
		if !exprKeyInto(e.Y, b, reads) {
			return false
		}
		b.WriteByte(')')
	case *ir.Intrinsic:
		fmt.Fprintf(b, "f%d(", e.Fn)
		for n, a := range e.Args {
			if n > 0 {
				b.WriteByte(',')
			}
			if !exprKeyInto(a, b, reads) {
				return false
			}
		}
		b.WriteByte(')')
	default:
		return false
	}
	return true
}
