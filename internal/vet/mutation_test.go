package vet

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/ir"
	"commopt/internal/programs"
	"commopt/internal/zpl"
)

// The plan checker is scored against every single-step mutant of every
// plan the corpus yields: the bundled benchmarks, examples/zpl and
// testdata/regress, each at every level of comm.Levels(), plain and inlined.
// A mutant is applied to one block in place, checked, and undone, so the
// whole enumeration costs one plan build per (program, level).

// mutClass is one kind of single-step corruption. apply mutates bp for
// transfer t (never hoisted) and reports whether the mutant exists.
type mutClass struct {
	name  string
	apply func(bp *comm.BlockPlan, t *comm.Transfer, inLoop bool) bool
}

var mutClasses = []mutClass{
	{"drop-transfer", func(bp *comm.BlockPlan, t *comm.Transfer, _ bool) bool {
		bp.Transfers = slices.DeleteFunc(slices.Clone(bp.Transfers), func(u *comm.Transfer) bool { return u == t })
		for pos, calls := range bp.Calls {
			bp.Calls[pos] = slices.DeleteFunc(slices.Clone(calls), func(c comm.Call) bool { return c.T == t })
		}
		return true
	}},
	{"sr-earlier", func(bp *comm.BlockPlan, t *comm.Transfer, _ bool) bool {
		return moveCall(bp, t, comm.SR, -1, true)
	}},
	{"dn-later", func(bp *comm.BlockPlan, t *comm.Transfer, _ bool) bool {
		return moveCall(bp, t, comm.DN, +1, true)
	}},
	{"sv-later", func(bp *comm.BlockPlan, t *comm.Transfer, _ bool) bool {
		return moveCall(bp, t, comm.SV, +1, true)
	}},
	{"dn-call-earlier", func(bp *comm.BlockPlan, t *comm.Transfer, _ bool) bool {
		return moveCall(bp, t, comm.DN, -1, false)
	}},
	{"drop-sv-call", func(bp *comm.BlockPlan, t *comm.Transfer, _ bool) bool {
		pos, i := callOf(bp, t, comm.SV)
		if pos < 0 {
			return false
		}
		bp.Calls[pos] = slices.Delete(slices.Clone(bp.Calls[pos]), i, i+1)
		return true
	}},
	{"dup-sr-call", func(bp *comm.BlockPlan, t *comm.Transfer, _ bool) bool {
		pos, i := callOf(bp, t, comm.SR)
		if pos < 0 {
			return false
		}
		bp.Calls[pos] = slices.Insert(slices.Clone(bp.Calls[pos]), i+1, bp.Calls[pos][i])
		return true
	}},
	{"swap-dr-sr", func(bp *comm.BlockPlan, t *comm.Transfer, _ bool) bool {
		pd, id := callOf(bp, t, comm.DR)
		ps, is := callOf(bp, t, comm.SR)
		if pd < 0 || ps < 0 {
			return false
		}
		bp.Calls[pd] = slices.Clone(bp.Calls[pd])
		if ps != pd {
			bp.Calls[ps] = slices.Clone(bp.Calls[ps])
		}
		bp.Calls[pd][id].Kind, bp.Calls[ps][is].Kind = comm.SR, comm.DR
		t.DRPos, t.SRPos = t.SRPos, t.DRPos
		return true
	}},
	{"widen-other-offset", func(bp *comm.BlockPlan, t *comm.Transfer, _ bool) bool {
		for _, u := range bp.Transfers {
			if u.Offset == t.Offset {
				continue
			}
			var extra []*ir.ArraySym
			for _, a := range u.Items {
				if !t.Carries(a) {
					extra = append(extra, a)
				}
			}
			if len(extra) == 0 {
				continue
			}
			t.Items = append(slices.Clip(t.Items), extra...)
			return true
		}
		return false
	}},
	{"hoist-in-loop", func(bp *comm.BlockPlan, t *comm.Transfer, inLoop bool) bool {
		t.Hoisted = inLoop
		return inLoop
	}},
}

// callOf locates t's call of kind k in the block schedule: its boundary
// and index, or (-1, -1).
func callOf(bp *comm.BlockPlan, t *comm.Transfer, k comm.CallKind) (int, int) {
	for pos, calls := range bp.Calls {
		for i, c := range calls {
			if c.T == t && c.Kind == k {
				return pos, i
			}
		}
	}
	return -1, -1
}

// moveCall moves t's call of kind k by delta boundaries, inserting it
// where finalizeBlock would (after the calls of its kind and lower), and
// with record set moves the transfer's recorded position with it.
func moveCall(bp *comm.BlockPlan, t *comm.Transfer, k comm.CallKind, delta int, record bool) bool {
	pos, i := callOf(bp, t, k)
	np := pos + delta
	if pos < 0 || np < 0 || np >= len(bp.Calls) {
		return false
	}
	c := bp.Calls[pos][i]
	bp.Calls[pos] = slices.Delete(slices.Clone(bp.Calls[pos]), i, i+1)
	at := 0
	for at < len(bp.Calls[np]) && bp.Calls[np][at].Kind <= k {
		at++
	}
	bp.Calls[np] = slices.Insert(slices.Clone(bp.Calls[np]), at, c)
	if record {
		switch k {
		case comm.SR:
			t.SRPos = np
		case comm.DN:
			t.DNPos = np
		case comm.SV:
			t.SVPos = np
		}
	}
	return true
}

// blockState is what a mutant may change in one block, for undo.
type blockState struct {
	transfers []*comm.Transfer
	vals      []comm.Transfer
	calls     [][]comm.Call
}

func saveBlock(bp *comm.BlockPlan) blockState {
	s := blockState{transfers: bp.Transfers, calls: slices.Clone(bp.Calls)}
	for _, t := range bp.Transfers {
		s.vals = append(s.vals, *t)
	}
	return s
}

func (s blockState) restore(bp *comm.BlockPlan) {
	bp.Transfers = s.transfers
	for i, t := range s.transfers {
		*t = s.vals[i]
	}
	copy(bp.Calls, s.calls)
}

// loopBlocks returns the blocks nested, at any depth, in a loop body.
func loopBlocks(p *comm.Plan) map[*comm.BlockPlan]bool {
	out := map[*comm.BlockPlan]bool{}
	var walk func(body []ir.Stmt, inLoop bool)
	walk = func(body []ir.Stmt, inLoop bool) {
		for _, seg := range comm.SplitSegments(body) {
			if seg.Block != nil {
				if bp := p.BlockFor(seg.Block[0]); bp != nil && inLoop {
					out[bp] = true
				}
				continue
			}
			switch s := seg.Control.(type) {
			case *ir.If:
				walk(s.Then, inLoop)
				walk(s.Else, inLoop)
			case *ir.Repeat:
				walk(s.Body, true)
			case *ir.While:
				walk(s.Body, true)
			case *ir.For:
				walk(s.Body, true)
			}
		}
	}
	for _, proc := range p.Program.Procs {
		walk(proc.Body, false)
	}
	return out
}

// mutationCorpus returns every program the checker is scored on, plain
// and inlined.
func mutationCorpus(t *testing.T) map[string]*ir.Program {
	t.Helper()
	srcs := map[string]string{}
	for _, b := range programs.Suite() {
		srcs[b.Name] = b.Source
	}
	for _, pat := range []string{"../../examples/zpl/*.zpl", "../../testdata/regress/*.zpl"} {
		files, err := filepath.Glob(pat)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no corpus files (%v)", pat, err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			srcs[filepath.Base(f)] = string(data)
		}
	}
	out := map[string]*ir.Program{}
	for name, src := range srcs {
		ast, err := zpl.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := ir.Lower(ast)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = prog
		out[name+"+inline"] = ir.Inline(prog)
	}
	return out
}

// mutantScore is one class's tally.
type mutantScore struct{ mutants, rejected int }

func scoreMutants(t *testing.T, rejects func(*comm.Plan) bool) map[string]mutantScore {
	t.Helper()
	scores := map[string]mutantScore{}
	corpus := mutationCorpus(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		for _, lv := range comm.Levels() {
			plan := comm.BuildPlan(corpus[name], lv.Opts)
			if rejects(plan) {
				t.Fatalf("%s [%s]: unmutated plan rejected", name, lv.Name)
			}
			inLoop := loopBlocks(plan)
			for _, bp := range plan.Blocks {
				saved := saveBlock(bp)
				for _, tr := range saved.transfers {
					if tr.Hoisted {
						continue
					}
					for _, mc := range mutClasses {
						if mc.apply(bp, tr, inLoop[bp]) {
							s := scores[mc.name]
							s.mutants++
							if rejects(plan) {
								s.rejected++
							}
							scores[mc.name] = s
						}
						saved.restore(bp)
					}
				}
			}
			if rejects(plan) {
				t.Fatalf("%s [%s]: plan not restored after its mutants", name, lv.Name)
			}
		}
	}
	return scores
}

// TestCheckerKillsMutants pins comm.CheckPlan's score per mutation class.
// union is what the three validators it replaced — the error-returning
// CheckPlan, VerifyPlan and cost's structural protocol rules — rejected
// together on the same mutants, as EXPERIMENTS.md records; no class may
// fall below it. A corpus change moves the
// mutant counts: re-pin them, keeping rejected >= union.
func TestCheckerKillsMutants(t *testing.T) {
	want := map[string]struct{ mutants, rejected, union int }{
		"drop-transfer":      {1718, 1576, 1576},
		"sr-earlier":         {1260, 1260, 1260},
		"dn-later":           {1718, 1576, 1576},
		"sv-later":           {762, 762, 762},
		"dn-call-earlier":    {1442, 1442, 1442},
		"drop-sv-call":       {1718, 1718, 1718},
		"dup-sr-call":        {1718, 1718, 1718},
		"swap-dr-sr":         {1718, 1718, 1718},
		"widen-other-offset": {1154, 688, 688},
		"hoist-in-loop":      {1320, 1320, 1320},
	}
	scores := scoreMutants(t, func(p *comm.Plan) bool { return len(comm.CheckPlan(p)) > 0 })
	for _, mc := range mutClasses {
		got, w := scores[mc.name], want[mc.name]
		t.Logf("%-20s %6d mutants %6d rejected %6d accepted", mc.name, got.mutants, got.rejected, got.mutants-got.rejected)
		if got.mutants != w.mutants || got.rejected != w.rejected {
			t.Errorf("%s: %d mutants, %d rejected; pinned %d, %d", mc.name, got.mutants, got.rejected, w.mutants, w.rejected)
		}
		if got.rejected < w.union {
			t.Errorf("%s: %d rejected, fewer than the %d the replaced validators rejected", mc.name, got.rejected, w.union)
		}
	}
}
