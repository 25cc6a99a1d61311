package cost

import (
	"testing"

	"commopt/internal/collective"
	"commopt/internal/comm"
	"commopt/internal/diag"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/rt"
	"commopt/internal/zpl"
)

// compileBench parses, lowers and plans one benchmark at one
// optimization level, fresh each call so tests can corrupt the plan
// without poisoning each other.
func compileBench(t *testing.T, name string, opts comm.Options) (*ir.Program, *comm.Plan, map[string]float64) {
	t.Helper()
	bench, err := programs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ast, err := zpl.Parse(bench.Source)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		t.Fatal(err)
	}
	return prog, comm.BuildPlan(prog, opts), bench.TestConfig
}

func testCfg(lib string, vars map[string]float64) Config {
	return Config{Machine: machine.T3D(), Library: lib, Procs: 4, ConfigVars: vars}
}

func rules(fs []diag.Finding) map[string]bool {
	out := map[string]bool{}
	for _, f := range fs {
		out[f.Rule] = true
	}
	return out
}

// findCall locates the first block holding a call of the given kind and
// returns the block plan plus the call's (boundary, slot) coordinates.
func findCall(t *testing.T, plan *comm.Plan, kind comm.CallKind) (*comm.BlockPlan, int, int) {
	t.Helper()
	for _, bp := range plan.Blocks {
		for pos, calls := range bp.Calls {
			for slot, c := range calls {
				if c.Kind == kind && !c.T.Hoisted {
					return bp, pos, slot
				}
			}
		}
	}
	t.Fatal("plan has no matching call")
	return nil, 0, 0
}

// TestCheckCleanPlans is the positive control: every shipped plan of
// every benchmark passes the full protocol check under both T3D
// bindings with the capacity the runtime actually allocates.
func TestCheckCleanPlans(t *testing.T) {
	for _, bench := range programs.Suite() {
		for _, opts := range []comm.Options{comm.Baseline(), comm.PL(), comm.PLMaxLatency()} {
			prog, plan, vars := compileBench(t, bench.Name, opts)
			for _, lib := range []string{"pvm", "shmem"} {
				fs, err := Check(prog, plan, testCfg(lib, vars), rt.PairChanCap(plan))
				if err != nil {
					t.Fatalf("%s/%v/%s: %v", bench.Name, opts, lib, err)
				}
				for _, f := range fs {
					t.Errorf("%s/%v/%s: unexpected finding %s: %s", bench.Name, opts, lib, f.Rule, f.Msg)
				}
			}
		}
	}
}

// TestMutationDroppedSV corrupts a plan by deleting one transfer's SV
// call; the plan checker must flag the incomplete call set.
func TestMutationDroppedSV(t *testing.T) {
	_, plan, _ := compileBench(t, "simple", comm.Baseline())
	bp, pos, slot := findCall(t, plan, comm.SV)
	bp.Calls[pos] = append(bp.Calls[pos][:slot], bp.Calls[pos][slot+1:]...)

	if fs := comm.CheckPlan(plan); !rules(fs)[comm.RuleCallSet] {
		t.Fatalf("dropped SV not caught; findings: %v", fs)
	}
}

// TestMutationDuplicateSR duplicates an SR call: also a call-set
// violation, at the same rule ID but a distinct message.
func TestMutationDuplicateSR(t *testing.T) {
	_, plan, _ := compileBench(t, "simple", comm.Baseline())
	bp, pos, slot := findCall(t, plan, comm.SR)
	bp.Calls[pos] = append(bp.Calls[pos], bp.Calls[pos][slot])

	if fs := comm.CheckPlan(plan); !rules(fs)[comm.RuleCallSet] {
		t.Fatalf("duplicate SR not caught; findings: %v", fs)
	}
}

// TestMutationMisplacedCall moves a DN call one statement boundary
// earlier than the transfer recorded, without touching the record: the
// placement no longer matches and, once it crosses before SR, the SPMD
// order breaks too.
func TestMutationMisplacedCall(t *testing.T) {
	_, plan, _ := compileBench(t, "simple", comm.Baseline())
	bp, pos, slot := findCall(t, plan, comm.DN)
	call := bp.Calls[pos][slot]
	if call.T.DNPos == 0 {
		t.Fatal("expected a DN call placed after the first boundary")
	}
	bp.Calls[pos] = append(bp.Calls[pos][:slot], bp.Calls[pos][slot+1:]...)
	bp.Calls[0] = append([]comm.Call{call}, bp.Calls[0]...)

	got := rules(comm.CheckPlan(plan))
	if !got[comm.RuleCallSet] {
		t.Fatalf("misplaced DN not caught as call-set violation")
	}
	if !got[comm.RuleCallOrder] {
		t.Fatalf("DN hoisted before SR not caught as order violation")
	}
}

// TestMutationReorderedDR swaps a transfer's DR behind its SR in the
// SPMD sequence, updating the recorded position so the call-set check
// stays silent. Under the rendezvous SHMEM binding every processor would
// then enter SR waiting for a destination-ready token nobody has sent.
// No binding is needed to see it: every processor runs the same
// sequence, so SR before its own DR is a call-order violation, and the
// plan checker rejects it for every library alike.
func TestMutationReorderedDR(t *testing.T) {
	_, plan, _ := compileBench(t, "simple", comm.Baseline())
	bp, pos, slot := findCall(t, plan, comm.DR)
	call := bp.Calls[pos][slot]
	dn := call.T.DNPos
	bp.Calls[pos] = append(bp.Calls[pos][:slot], bp.Calls[pos][slot+1:]...)
	bp.Calls[dn] = append(bp.Calls[dn], call)
	call.T.DRPos = dn // keep placement consistent with the record

	fs := comm.CheckPlan(plan)
	got := rules(fs)
	if !got[comm.RuleCallOrder] {
		t.Fatalf("SR-before-DR not caught as order violation; findings: %v", fs)
	}
	if got[comm.RuleCallSet] {
		t.Fatalf("mutation should not trip the call-set rule; findings: %v", fs)
	}
}

// TestMutationPairAsymmetry corrupts one derived shape — a receiver
// expecting eight bytes more than its partner sends — and runs the
// shape-dependent checks directly, proving the pairing rule rests on
// the two independently computed tables actually agreeing.
func TestMutationPairAsymmetry(t *testing.T) {
	prog, plan, vars := compileBench(t, "simple", comm.Baseline())
	w, err := analyze(prog, plan, testCfg("pvm", vars))
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, sh := range w.shapes {
		for rank := range sh.recvs {
			for i := range sh.recvs[rank] {
				if sh.recvs[rank][i].bytes > 0 && !corrupted {
					sh.recvs[rank][i].bytes += 8
					corrupted = true
				}
			}
		}
	}
	if !corrupted {
		t.Fatal("no non-empty receive pair to corrupt")
	}
	c := &checker{plan: plan}
	c.shapes(w, rt.PairChanCap(plan))
	if !rules(c.findings)[RulePairAsymmetry] {
		t.Fatalf("corrupted pair table not caught; findings: %v", c.findings)
	}
}

// TestMutationInflightOverflow shrinks the channel capacity below the
// 2T+2 bound the plan needs; the checker must reject the configuration
// the runtime's deadlock-freedom argument no longer covers.
func TestMutationInflightOverflow(t *testing.T) {
	prog, plan, vars := compileBench(t, "simple", comm.PL())
	fs, err := Check(prog, plan, testCfg("pvm", vars), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rules(fs)[RuleInflightOverflow] {
		t.Fatalf("capacity 3 not flagged; findings: %v", fs)
	}
	// The capacity the runtime actually allocates is exactly enough.
	fs, err = Check(prog, plan, testCfg("pvm", vars), rt.PairChanCap(plan))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("runtime capacity flagged: %v", fs)
	}
}

// TestMutationHoistedCallInBlock re-adds a hoisted transfer's calls to
// its origin block, the inverse of the hoist pass's contract.
func TestMutationHoistedCallInBlock(t *testing.T) {
	_, plan, _ := compileBench(t, "simple", comm.Options{
		RemoveRedundant: true, Combine: true, Pipeline: true, HoistInvariant: true,
	})
	var hoisted *comm.Transfer
	var bp *comm.BlockPlan
	for _, b := range plan.Blocks {
		for _, tr := range b.Transfers {
			if tr.Hoisted {
				hoisted, bp = tr, b
				break
			}
		}
		if hoisted != nil {
			break
		}
	}
	if hoisted == nil {
		t.Skip("plan hoisted nothing")
	}
	bp.Calls[0] = append(bp.Calls[0], comm.Call{Kind: comm.DR, T: hoisted})

	if fs := comm.CheckPlan(plan); !rules(fs)[comm.RuleCallSet] {
		t.Fatalf("hoisted transfer's in-block call not caught; findings: %v", fs)
	}
}

// collSteps builds one algorithm's schedules on a mesh for the mutation
// tests to corrupt before handing them to the collective checker.
func collSteps(t *testing.T, a collective.Alg, procs int) [][]collective.Step {
	t.Helper()
	mesh := grid.SquarestMesh(procs)
	if !collective.Eligible(a, mesh) {
		t.Fatalf("%s not eligible on %v", a, mesh)
	}
	return collective.AllSteps(a, mesh)
}

// TestCollectiveCleanSchedules is the positive control: every eligible
// algorithm's generated schedule passes all three collective rules on
// meshes of each shape class (1-D, square, non-power-of-two).
func TestCollectiveCleanSchedules(t *testing.T) {
	for _, procs := range []int{2, 4, 6, 16, 25, 64} {
		mesh := grid.SquarestMesh(procs)
		for _, a := range collective.Algorithms() {
			if !collective.Eligible(a, mesh) {
				continue
			}
			c := &checker{}
			c.checkCollective(a.String(), collective.AllSteps(a, mesh), zpl.Pos{})
			for _, f := range c.findings {
				t.Errorf("%s on %d procs: unexpected finding %s: %s", a, procs, f.Rule, f.Msg)
			}
		}
	}
}

// TestMutationCollDroppedSend removes one rank's send: its partner
// blocks forever, which the progress rule must catch (the pairing rule
// fires too — the orphaned receive has no sender).
func TestMutationCollDroppedSend(t *testing.T) {
	for _, a := range []collective.Alg{collective.Star, collective.Tree, collective.Butterfly, collective.TwoLevel} {
		steps := collSteps(t, a, 16)
		dropped := false
		for i, st := range steps[1] {
			if st.Kind == collective.Send {
				steps[1] = append(steps[1][:i:i], steps[1][i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			t.Fatalf("%s: rank 1 has no send", a)
		}
		c := &checker{}
		c.checkCollective(a.String(), steps, zpl.Pos{})
		if !rules(c.findings)[RuleCollPairing] {
			t.Errorf("%s: dropped send not caught by pairing; findings: %v", a, c.findings)
		}
	}
}

// TestMutationCollMisdirectedSend redirects one gather send to the wrong
// peer: pairing breaks on both the original and the new edge.
func TestMutationCollMisdirectedSend(t *testing.T) {
	steps := collSteps(t, collective.Tree, 16)
	for i, st := range steps[3] {
		if st.Kind == collective.Send && !st.Bcast {
			steps[3][i].Peer = (st.Peer + 1) % 16
			break
		}
	}
	c := &checker{}
	c.checkCollective("tree", steps, zpl.Pos{})
	if !rules(c.findings)[RuleCollPairing] {
		t.Fatalf("misdirected send not caught; findings: %v", c.findings)
	}
}

// TestMutationCollShrunkWindow shrinks one gather hop's payload on both
// ends: pairing stays symmetric, but the fold no longer covers every
// contribution — the coverage replay must catch it.
func TestMutationCollShrunkWindow(t *testing.T) {
	steps := collSteps(t, collective.Butterfly, 16)
	// Level-2 hops carry windows of 4; shrink one exchange to 3 on both
	// sides so the receiver's window stops being contiguous-complete.
	mutated := 0
	for r := range steps {
		for i, st := range steps[r] {
			if st.Level == 2 && (r == 0 || r == 4) {
				steps[r][i].Count = st.Count - 1
				mutated++
			}
		}
	}
	if mutated != 4 {
		t.Fatalf("expected to shrink 4 hops (send+recv on both ranks), got %d", mutated)
	}
	c := &checker{}
	c.checkCollective("butterfly", steps, zpl.Pos{})
	if !rules(c.findings)[RuleCollCoverage] {
		t.Fatalf("shrunk gather window not caught; findings: %v", c.findings)
	}
}

// TestMutationCollSwappedOrder swaps one rank's butterfly send/recv pair
// so both partners receive before sending in the same round: a genuine
// wait cycle the progress rule must catch. (Pairing still holds — every
// edge has its matched send and receive.)
func TestMutationCollSwappedOrder(t *testing.T) {
	steps := collSteps(t, collective.Butterfly, 4)
	// Rank 0 and rank 1 exchange at level 0 (steps 0 and 1). Make both
	// receive first: each waits for the other's send that never happens.
	steps[0][0], steps[0][1] = steps[0][1], steps[0][0]
	steps[1][0], steps[1][1] = steps[1][1], steps[1][0]
	c := &checker{}
	c.checkCollective("butterfly", steps, zpl.Pos{})
	if !rules(c.findings)[RuleCollProgress] {
		t.Fatalf("receive-before-send cycle not caught; findings: %v", c.findings)
	}
}

// TestMutationCollMissingBcast drops the star root's result send to one
// rank: that rank never receives the fold. Pairing flags the orphaned
// receive; dropping the receive too must then trip coverage (the rank
// finishes without the result).
func TestMutationCollMissingBcast(t *testing.T) {
	steps := collSteps(t, collective.Star, 16)
	// Remove root's bcast send to rank 5 AND rank 5's matching receive,
	// keeping pairing clean so the coverage rule does the work.
	var pruned []collective.Step
	for _, st := range steps[0] {
		if st.Kind == collective.Send && st.Bcast && st.Peer == 5 {
			continue
		}
		pruned = append(pruned, st)
	}
	steps[0] = pruned
	pruned = nil
	for _, st := range steps[5] {
		if st.Kind == collective.Recv && st.Bcast {
			continue
		}
		pruned = append(pruned, st)
	}
	steps[5] = pruned
	c := &checker{}
	c.checkCollective("star", steps, zpl.Pos{})
	if !rules(c.findings)[RuleCollCoverage] {
		t.Fatalf("missing result delivery not caught; findings: %v", c.findings)
	}
}

// TestCheckValidatesCollectives: the full Check entry point runs the
// collective rules for every eligible algorithm when the plan carries
// reduction sites (positive control through the public API: the shipped
// schedules produce no findings — exercised already by
// TestCheckCleanPlans on the reduction-bearing benchmarks).
func TestCheckValidatesCollectives(t *testing.T) {
	prog, plan, vars := compileBench(t, "simple", comm.PL())
	if len(plan.Collectives) == 0 {
		t.Fatal("simple should carry reduction sites")
	}
	fs, err := Check(prog, plan, testCfg("pvm", vars), rt.PairChanCap(plan))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("clean plan produced findings: %v", fs)
	}
}
