// Package comm implements the paper's machine-independent communication
// optimizer as an instrumented pass pipeline: message-vectorized baseline
// generation (pass_emit.go), redundant communication removal
// (pass_rr.go), communication combination with the maximize-combining and
// maximize-latency-hiding heuristics (pass_cc.go), communication
// pipelining (pass_pl.go) and loop-invariant hoisting (pass_hoist.go),
// all running over a shared per-block dataflow analysis (analysis.go),
// together with IRONMAN call placement, per-pass trace accounting
// (pipeline.go), static count accounting and the one plan checker
// (check.go), which shares none of that analysis.
//
// The optimizer's scope is a single source-level basic block: a maximal
// straight-line run of whole-array statements. Control statements bound
// blocks; their nested bodies are optimized recursively.
package comm

import (
	"fmt"
	"strings"

	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/zpl"
)

// Heuristic selects how communication combination trades message count
// against latency-hiding potential (Section 2 of the paper).
type Heuristic int

// MaxLatencyHiding merges transfers only when the combined send-to-receive
// distance is no smaller than any member's own distance, so combining
// never reduces latency-hiding potential. The zero Heuristic, maximum
// combining, merges whenever legal, minimizing message count.
const MaxLatencyHiding Heuristic = 1

// String names the heuristic.
func (h Heuristic) String() string {
	if h == MaxLatencyHiding {
		return "max-latency-hiding"
	}
	return "max-combining"
}

// Options selects which optimizations the planner applies. The zero value
// is the paper's baseline: naive communication generation with message
// vectorization only. Each enabled optimization becomes one stage of the
// pass pipeline (see pipeline.go).
type Options struct {
	RemoveRedundant bool
	Combine         bool
	Pipeline        bool
	Heuristic       Heuristic

	// HoistInvariant enables the cross-block extension: transfers whose
	// data is identical on every iteration of an enclosing loop execute
	// once in the loop's preheader (see pass_hoist.go).
	HoistInvariant bool
}

// Baseline returns message vectorization only.
func Baseline() Options { return Options{} }

// RR returns baseline plus redundant communication removal.
func RR() Options { return Options{RemoveRedundant: true} }

// CC returns RR plus communication combination.
func CC() Options {
	return Options{RemoveRedundant: true, Combine: true}
}

// PL returns CC plus communication pipelining.
func PL() Options {
	return Options{RemoveRedundant: true, Combine: true, Pipeline: true}
}

// PLMaxLatency returns PL with the maximize-latency-hiding combining
// heuristic.
func PLMaxLatency() Options {
	return Options{RemoveRedundant: true, Combine: true, Pipeline: true, Heuristic: MaxLatencyHiding}
}

// PLHoist returns PL with loop-invariant communication hoisting.
func PLHoist() Options {
	return Options{RemoveRedundant: true, Combine: true, Pipeline: true, HoistInvariant: true}
}

// Level is one named optimizer configuration: one value of the -O flag
// of zplc and zplrun.
type Level struct {
	Name string
	Opts Options
}

// Levels returns the -O table, the one list of optimizer configurations
// every command, experiment and test reads: the paper's ladder, then the
// alternative combining heuristic and the hoisting extension.
func Levels() []Level {
	return []Level{
		{"baseline", Baseline()},
		{"rr", RR()},
		{"cc", CC()},
		{"pl", PL()},
		{"pl-maxlat", PLMaxLatency()},
		{"pl+hoist", PLHoist()},
	}
}

// LevelNames returns the names of Levels, in order.
func LevelNames() []string {
	var names []string
	for _, lv := range Levels() {
		names = append(names, lv.Name)
	}
	return names
}

// OptionsByName looks a level up by name in Levels.
func OptionsByName(name string) (Options, error) {
	for _, lv := range Levels() {
		if lv.Name == name {
			return lv.Opts, nil
		}
	}
	return Options{}, fmt.Errorf("unknown optimization level %q (known: %s)", name, strings.Join(LevelNames(), ", "))
}

// String summarizes enabled optimizations.
func (o Options) String() string {
	switch {
	case o.Pipeline && o.Heuristic == MaxLatencyHiding:
		return "pl/max-latency"
	case o.Pipeline:
		return "pl"
	case o.Combine:
		return "cc"
	case o.RemoveRedundant:
		return "rr"
	default:
		return "baseline"
	}
}

// CallKind is one of the four IRONMAN calls.
type CallKind int

// IRONMAN calls (in per-position execution order).
const (
	DR CallKind = iota // destination ready to receive
	SR                 // source ready for transmission
	DN                 // transmitted data needed at destination
	SV                 // source data about to become volatile
)

// String names the call.
func (k CallKind) String() string {
	switch k {
	case DR:
		return "DR"
	case SR:
		return "SR"
	case DN:
		return "DN"
	case SV:
		return "SV"
	}
	return "?"
}

// Site is one source-level communication callsite a transfer serves: the
// position of the statement whose array use required the data, and the
// use itself. The emit pass records one site per baseline transfer;
// later passes fold the sites of dropped or merged transfers into the
// surviving transfer, so a plan's sites always partition the program's
// communicating uses and per-callsite profiles stay total.
type Site struct {
	Pos zpl.Pos
	Use ir.ArrayUse
}

// String renders the site like "12:7 U@[0,1,0]".
func (s Site) String() string { return fmt.Sprintf("%s %s", s.Pos, s.Use) }

// Transfer is a single data movement: one or more arrays (combined),
// one offset, and positions for the four IRONMAN calls. Positions are
// statement-boundary indices within the block: a call at position p
// executes before the block's p'th statement; p == len(stmts) is the block
// end.
type Transfer struct {
	ID int // index within the block's schedule (the message tag)
	// Slot is the transfer's dense plan-wide index, 0..Plan.NumTransfers()-1,
	// assigned when Build finishes the plan: the runtime's per-processor
	// dispatch state is a slice indexed by it.
	Slot   int
	Offset grid.Offset
	Items  []*ir.ArraySym
	Region ir.RegionExpr // region of the first-use statement

	// Sites lists every source callsite whose communication this transfer
	// delivers, in block statement order; Sites[0] is the earliest use
	// (the transfer's primary attribution point).
	Sites []Site

	DRPos, SRPos, DNPos, SVPos int
	UseIdx                     int // statement index of the earliest use

	// Hoisted marks a loop-invariant transfer executed in the enclosing
	// loop's preheader instead of inside the block.
	Hoisted bool
}

// CallPos returns the transfer's recorded statement-boundary position for
// one IRONMAN call kind.
func (t *Transfer) CallPos(k CallKind) int {
	switch k {
	case DR:
		return t.DRPos
	case SR:
		return t.SRPos
	case DN:
		return t.DNPos
	case SV:
		return t.SVPos
	}
	panic(fmt.Sprintf("comm: bad call kind %d", k))
}

// absorbSites appends another transfer's callsites, skipping exact
// duplicates, so dropping or merging a transfer never loses attribution.
func (t *Transfer) absorbSites(o *Transfer) {
	for _, s := range o.Sites {
		dup := false
		for _, have := range t.Sites {
			if have == s {
				dup = true
				break
			}
		}
		if !dup {
			t.Sites = append(t.Sites, s)
		}
	}
}

// Carries reports whether the transfer moves array a.
func (t *Transfer) Carries(a *ir.ArraySym) bool {
	for _, it := range t.Items {
		if it == a {
			return true
		}
	}
	return false
}

// String renders the transfer compactly.
func (t *Transfer) String() string {
	return fmt.Sprintf("T%d(%s SR@%d DN@%d)", t.ID, t.Label(), t.SRPos, t.DNPos)
}

// Arrays names the arrays the transfer carries, comma-separated.
func (t *Transfer) Arrays() string {
	names := make([]string, len(t.Items))
	for i, it := range t.Items {
		names[i] = it.Name
	}
	return strings.Join(names, ",")
}

// Label renders the carried arrays and the offset, e.g. "U,V@[0,1,0]":
// the transfer column of the callsite profile and of the forecast.
func (t *Transfer) Label() string { return t.Arrays() + "@" + t.Offset.String() }

// Call is one placed IRONMAN call.
type Call struct {
	Kind CallKind
	T    *Transfer
}

// BlockPlan is the optimized communication schedule for one basic block.
type BlockPlan struct {
	Stmts     []ir.Stmt
	Transfers []*Transfer
	// Calls[p] executes before Stmts[p]; Calls[len(Stmts)] at block end.
	Calls [][]Call
}

// Plan is the communication schedule for a whole program.
type Plan struct {
	Program *ir.Program
	Options Options
	Blocks  []*BlockPlan
	// Trace records what each pipeline pass did while building the plan.
	Trace *Trace
	// blockByFirst keys each block by its first statement so the runtime
	// can find it while walking the same structured bodies.
	blockByFirst map[ir.Stmt]*BlockPlan
	// preheader maps a loop statement to the transfers hoisted before it.
	preheader   map[ir.Stmt][]*Transfer
	StaticCount int

	// Collectives lists the program's global reduction sites in
	// deterministic source order (see collective.go); collByNode indexes
	// them by reduce node for the runtime and the cost predictor.
	Collectives []*Collective
	collByNode  map[*ir.Reduce]*Collective
}

// NumTransfers returns how many transfers the plan holds. Every transfer,
// hoisted ones included, is listed on exactly one block, counts once in
// StaticCount and carries a distinct Slot below it.
func (p *Plan) NumTransfers() int { return p.StaticCount }

// BlockFor returns the plan for the basic block whose first statement is
// first, or nil.
func (p *Plan) BlockFor(first ir.Stmt) *BlockPlan { return p.blockByFirst[first] }

// MaxBlockTransfers returns the largest number of transfers any single
// basic block (or loop preheader) of the plan schedules. The runtime
// budgets in-flight messages per processor pair from it (rt.PairChanCap):
// one block execution sends at most this many messages to one peer before
// draining them all.
func (p *Plan) MaxBlockTransfers() int {
	max := 0
	for _, bp := range p.Blocks {
		if len(bp.Transfers) > max {
			max = len(bp.Transfers)
		}
	}
	for _, ts := range p.preheader {
		if len(ts) > max {
			max = len(ts)
		}
	}
	return max
}

// Segment is one element of a structured body: either a basic block of
// straight-line statements or a single control statement.
type Segment struct {
	Block   []ir.Stmt // non-nil for a basic block
	Control ir.Stmt   // non-nil for a control statement
}

// SplitSegments partitions a structured body into basic blocks and control
// statements, preserving order. The runtime, the planner and the cost
// predictor share this so their views of block boundaries always agree.
//
// A block also ends after a scalar assignment to a variable that a literal
// region bound of the body reads: inside a block every literal region then
// denotes one index set from the first statement to the last, which is what
// lets the passes treat two uses under one scope as the same data
// (regionsCompatible) and the runtime resolve a literal region once per
// block entry.
func SplitSegments(body []ir.Stmt) []Segment {
	var out []Segment
	var run []ir.Stmt
	flush := func() {
		if len(run) > 0 {
			out = append(out, Segment{Block: run})
			run = nil
		}
	}
	bounds := boundScalars(body)
	for _, s := range body {
		if ir.IsStraightLine(s) {
			run = append(run, s)
			if a, ok := s.(*ir.AssignScalar); ok && bounds[a.LHS] {
				flush()
			}
			continue
		}
		flush()
		out = append(out, Segment{Control: s})
	}
	flush()
	return out
}

// boundScalars returns the scalars that the literal region bounds of the
// body's straight-line statements read.
func boundScalars(body []ir.Stmt) map[*ir.ScalarSym]bool {
	out := map[*ir.ScalarSym]bool{}
	for _, s := range body {
		if re := ir.RegionOf(s); re.Sym == nil {
			for d := 0; d < re.RankN; d++ {
				for _, e := range re.Bounds[d] {
					ir.EachScalarRef(e, func(sym *ir.ScalarSym) { out[sym] = true })
				}
			}
		}
	}
	return out
}

// BuildPlan runs the optimization pipeline selected by opts over every
// basic block of every procedure and returns the program's communication
// plan. It is the convenience entry point; use NewPipeline directly for
// debug-mode inter-pass validity checking.
func BuildPlan(prog *ir.Program, opts Options) *Plan {
	p, err := NewPipeline(opts).Build(prog)
	if err != nil {
		// Build only fails in Debug mode, which NewPipeline leaves off.
		panic("comm: " + err.Error())
	}
	return p
}

// regionsCompatible reports whether two statement regions of one basic
// block are provably the same index set, so their transfers may be
// combined: the same declared region, or the same literal scope — one slot,
// whose bounds no statement inside the block changes (SplitSegments).
func regionsCompatible(a, b ir.RegionExpr) bool {
	return a.Sym == b.Sym && (a.Sym != nil || a.Slot == b.Slot)
}
