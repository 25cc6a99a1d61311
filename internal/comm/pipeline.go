package comm

import (
	"fmt"
	"sort"
	"strings"

	"commopt/internal/ir"
)

// The optimizer is organized as a pass pipeline: each optimization is one
// Pass transforming a block's working transfer list over the shared
// BlockAnalysis substrate, so stages can be observed, reordered, selected
// individually and verified between stages. The registered block passes,
// in canonical order:
//
//	emit  — message-vectorized baseline generation (pass_emit.go)
//	rr    — redundant communication removal (pass_rr.go)
//	cc    — communication combination, both heuristics (pass_cc.go)
//	pl    — communication pipelining placement (pass_pl.go)
//
// plus one whole-plan pass that needs the loop structure around blocks:
//
//	hoist — loop-invariant communication hoisting (pass_hoist.go)
//
// Every pass leaves the plan valid: emit and cc place (or re-place)
// transfers synchronously, so the plan checker can run after any stage,
// which Debug mode uses to attribute an invalid intermediate plan to the
// pass that broke it.

// Pass is one stage of the per-block optimization pipeline.
type Pass interface {
	// Name is the stage's registry name (see PassNames).
	Name() string
	// Run transforms the context's transfer list in place.
	Run(c *BlockContext)
}

// BlockContext carries one basic block through the pipeline: the
// statements, the block analysis (computed once), the option set, the
// innermost enclosing loop's kill set (nil unless hoisting is enabled
// inside a loop), and the working transfer list passes transform.
type BlockContext struct {
	Stmts     []ir.Stmt
	Analysis  *BlockAnalysis
	Opts      Options
	Killed    map[*ir.ArraySym]bool
	Transfers []*Transfer

	// Stats is the trace entry of the pass currently running; passes
	// record what they emit, drop, merge and move through it.
	Stats *PassStats

	nextID int
}

// PassStats counts what a pass did to the transfers it saw.
type PassStats struct {
	Emitted int // new transfers created
	Dropped int // transfers removed outright (redundant, or absorbed duplicates)
	Merged  int // transfers folded into a combined transfer
	Moved   int // transfers whose call placement changed
}

func (s *PassStats) add(o PassStats) {
	s.Emitted += o.Emitted
	s.Dropped += o.Dropped
	s.Merged += o.Merged
	s.Moved += o.Moved
}

// PassTrace is one stage's aggregated trace across a whole build: the
// program-wide static transfer count entering and leaving the stage, and
// the stage's action counters.
type PassTrace struct {
	Pass   string
	Before int
	After  int
	PassStats
}

// Trace records what every pipeline stage did while building a plan.
type Trace struct {
	Passes []PassTrace
}

// Final returns the program's static communication count after the last
// stage.
func (tr *Trace) Final() int {
	if len(tr.Passes) == 0 {
		return 0
	}
	return tr.Passes[len(tr.Passes)-1].After
}

// String summarizes the trace as "emit 56 → rr 31 → cc 15".
func (tr *Trace) String() string {
	var b strings.Builder
	for i, pt := range tr.Passes {
		if i > 0 {
			b.WriteString(" → ")
		}
		fmt.Fprintf(&b, "%s %d", pt.Pass, pt.After)
	}
	return b.String()
}

// Pipeline is a configured sequence of optimization passes. Build it with
// NewPipeline (the pass list opts selects) or PipelineFor (an explicit
// pass list).
type Pipeline struct {
	opts   Options
	passes []Pass
	hoist  bool

	// Debug runs the plan checker (CheckPlan's block rules) after every
	// pass of every block, so Build reports the pass that produced an
	// invalid intermediate plan instead of failing at the end, and
	// CheckPlan once over the finished plan.
	Debug bool
}

// PassNames returns every registered pass name in canonical order.
func PassNames() []string { return []string{"emit", "rr", "cc", "pl", "hoist"} }

// DefaultPassNames returns the pass list the option set selects.
func DefaultPassNames(opts Options) []string {
	names := []string{"emit"}
	if opts.RemoveRedundant {
		names = append(names, "rr")
	}
	if opts.Combine {
		names = append(names, "cc")
	}
	if opts.Pipeline {
		names = append(names, "pl")
	}
	if opts.HoistInvariant {
		names = append(names, "hoist")
	}
	return names
}

// NewPipeline returns the pipeline the option set selects.
func NewPipeline(opts Options) *Pipeline {
	pl, err := PipelineFor(opts, DefaultPassNames(opts))
	if err != nil {
		panic("comm: default pass list invalid: " + err.Error())
	}
	return pl
}

// PipelineFor builds a pipeline from an explicit pass list. The list must
// start with "emit", contain no duplicates, and place "hoist" (if present)
// last. The boolean pass-selection fields of opts are overridden to match
// the list, so Options stays consistent with what actually runs; the
// remaining fields (Heuristic, CombineLimitBytes, EstimateBytes) tune the
// listed passes as usual.
func PipelineFor(opts Options, names []string) (*Pipeline, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("comm: empty pass list")
	}
	seen := map[string]bool{}
	pl := &Pipeline{}
	for i, n := range names {
		if seen[n] {
			return nil, fmt.Errorf("comm: duplicate pass %q", n)
		}
		seen[n] = true
		switch n {
		case "emit":
			if i != 0 {
				return nil, fmt.Errorf("comm: pass %q must come first", n)
			}
			pl.passes = append(pl.passes, emitPass{})
		case "rr":
			pl.passes = append(pl.passes, rrPass{})
		case "cc":
			pl.passes = append(pl.passes, ccPass{})
		case "pl":
			pl.passes = append(pl.passes, plPass{})
		case "hoist":
			if i != len(names)-1 {
				return nil, fmt.Errorf("comm: pass %q must come last", n)
			}
			pl.hoist = true
		default:
			return nil, fmt.Errorf("comm: unknown pass %q (known: %s)", n, strings.Join(PassNames(), ", "))
		}
	}
	if !seen["emit"] {
		return nil, fmt.Errorf("comm: pass list must include %q", "emit")
	}
	opts.RemoveRedundant = seen["rr"]
	opts.Combine = seen["cc"]
	opts.Pipeline = seen["pl"]
	opts.HoistInvariant = seen["hoist"]
	pl.opts = opts
	return pl, nil
}

// Options returns the pipeline's effective option set.
func (pl *Pipeline) Options() Options { return pl.opts }

// Names returns the pipeline's pass list.
func (pl *Pipeline) Names() []string {
	var names []string
	for _, p := range pl.passes {
		names = append(names, p.Name())
	}
	if pl.hoist {
		names = append(names, "hoist")
	}
	return names
}

// Build runs the pipeline over every basic block of every procedure and
// returns the program's communication plan, with a per-pass trace. The
// error is always nil unless Debug is set, in which case it reports the
// first pass that produced an invalid intermediate plan.
func (pl *Pipeline) Build(prog *ir.Program) (*Plan, error) {
	p := &Plan{
		Program:      prog,
		Options:      pl.opts,
		blockByFirst: map[ir.Stmt]*BlockPlan{},
		preheader:    map[ir.Stmt][]*Transfer{},
	}
	trace := make([]PassTrace, len(pl.passes))
	for i, pass := range pl.passes {
		trace[i].Pass = pass.Name()
	}
	p.collectCollectives()
	for _, proc := range prog.Procs {
		if err := pl.body(p, proc.Body, nil, trace); err != nil {
			return nil, err
		}
	}
	for _, b := range p.Blocks {
		for _, t := range b.Transfers {
			t.Slot = p.StaticCount
			p.StaticCount++
		}
	}
	if pl.hoist {
		moved := hoistPass{}.RunProgram(p)
		trace = append(trace, PassTrace{
			Pass: "hoist", Before: p.StaticCount, After: p.StaticCount,
			PassStats: PassStats{Moved: moved},
		})
	}
	if pl.Debug {
		// The whole plan once more, calls and preheaders included: what the
		// per-pass checks cannot see yet, and what hoist did.
		if fs := CheckPlan(p); len(fs) > 0 {
			return nil, fmt.Errorf("plan: %s", fs[0])
		}
	}
	p.Trace = &Trace{Passes: trace}
	return p, nil
}

// body plans every basic block of a structured body. killed is the
// innermost enclosing loop's kill set (arrays it assigns anywhere), used
// only when the hoisting extension is enabled, so combining keeps
// loop-invariant transfers separable from loop-variant ones.
func (pl *Pipeline) body(p *Plan, body []ir.Stmt, killed map[*ir.ArraySym]bool, trace []PassTrace) error {
	loopBody := func(b []ir.Stmt) error {
		var inner map[*ir.ArraySym]bool
		if pl.opts.HoistInvariant {
			inner = map[*ir.ArraySym]bool{}
			collectDefs(b, inner)
		}
		return pl.body(p, b, inner, trace)
	}
	for _, seg := range SplitSegments(body) {
		if seg.Block != nil {
			bp, err := pl.runBlock(seg.Block, killed, trace)
			if err != nil {
				return err
			}
			p.Blocks = append(p.Blocks, bp)
			p.blockByFirst[seg.Block[0]] = bp
			continue
		}
		var err error
		switch s := seg.Control.(type) {
		case *ir.If:
			if err = pl.body(p, s.Then, killed, trace); err == nil {
				err = pl.body(p, s.Else, killed, trace)
			}
		case *ir.Repeat:
			err = loopBody(s.Body)
		case *ir.While:
			err = loopBody(s.Body)
		case *ir.For:
			err = loopBody(s.Body)
		case *ir.Call:
			// Callee bodies are planned once, with their own procedure.
		default:
			panic(fmt.Sprintf("comm: unexpected control stmt %T", s))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runBlock carries one basic block through the block passes and
// finalizes its schedule. trace, when non-nil, must hold one entry per
// pass and accumulates each stage's counters.
func (pl *Pipeline) runBlock(stmts []ir.Stmt, killed map[*ir.ArraySym]bool, trace []PassTrace) (*BlockPlan, error) {
	c := &BlockContext{
		Stmts:    stmts,
		Analysis: AnalyzeBlock(stmts),
		Opts:     pl.opts,
		Killed:   killed,
	}
	for i, pass := range pl.passes {
		before := len(c.Transfers)
		var stats PassStats
		c.Stats = &stats
		pass.Run(c)
		if trace != nil {
			trace[i].Before += before
			trace[i].After += len(c.Transfers)
			trace[i].add(stats)
		}
		if pl.Debug {
			if fs := checkBlock(stmts, c.Transfers); len(fs) > 0 {
				return nil, fmt.Errorf("pass %s: %s", pass.Name(), fs[0])
			}
		}
	}
	return finalizeBlock(c), nil
}

// finalizeBlock renumbers the surviving transfers in schedule order and
// emits the block's IRONMAN call lists.
func finalizeBlock(c *BlockContext) *BlockPlan {
	bp := &BlockPlan{Stmts: c.Stmts}
	transfers := c.Transfers
	sort.SliceStable(transfers, func(i, j int) bool {
		if transfers[i].SRPos != transfers[j].SRPos {
			return transfers[i].SRPos < transfers[j].SRPos
		}
		return transfers[i].ID < transfers[j].ID
	})
	for i, t := range transfers {
		t.ID = i
	}
	bp.Transfers = transfers
	bp.Calls = make([][]Call, len(c.Stmts)+1)
	for _, k := range []CallKind{DR, SR, DN, SV} {
		for _, t := range transfers {
			pos := 0
			switch k {
			case DR:
				pos = t.DRPos
			case SR:
				pos = t.SRPos
			case DN:
				pos = t.DNPos
			case SV:
				pos = t.SVPos
			}
			bp.Calls[pos] = append(bp.Calls[pos], Call{Kind: k, T: t})
		}
	}
	// Within a position the emission order above already yields all DRs,
	// then SRs, then DNs, then SVs — the deadlock-free order (no blocking
	// call waits on a later call in the same global SPMD sequence).
	for _, calls := range bp.Calls {
		sort.SliceStable(calls, func(i, j int) bool { return calls[i].Kind < calls[j].Kind })
	}
	return bp
}
