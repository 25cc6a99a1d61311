package cost

import (
	"fmt"
	"sort"

	"commopt/internal/collective"
	"commopt/internal/comm"
	"commopt/internal/diag"
	"commopt/internal/ir"
	"commopt/internal/zpl"
)

// Protocol checker rule IDs: the rules that need a machine binding. Each
// corruption class the mutation tests exercise maps to exactly one of
// these, and all are distinct from comm.CheckPlan's plan-* rules: that
// checker proves the plan moves the right data in well-formed IRONMAN
// calls; this one proves the calls pair up, fit the runtime's channels
// and reduce correctly on a concrete mesh and library.
const (
	// RulePairAsymmetry: the derived per-processor send/receive tables of
	// some transfer shape are not transpose-symmetric on the mesh — both
	// sides of a pair must compute identical rectangles from replicated
	// state, or message sizes mismatch at DN.
	RulePairAsymmetry = "proto-pair-asymmetry"
	// RuleInflightOverflow: the worst-case number of in-flight transfers
	// on one directed processor pair within a block needs more channel
	// capacity than the runtime allocates (2*maxInflight+2 > capacity),
	// voiding the deadlock-freedom argument of DESIGN.md §13.
	RuleInflightOverflow = "proto-inflight-overflow"
	// RuleCollPairing: a collective schedule's hops are not pairwise
	// matched — some send has no receive with the same payload on the
	// other end (or vice versa), or one directed edge carries more than
	// one message per reduction, which the replay's one arrival time per
	// receive slot (collective.Schedule.Replay) cannot represent.
	RuleCollPairing = "proto-coll-pairing"
	// RuleCollCoverage: replaying a collective schedule's data flow, some
	// rank folds without holding all P contributions, receives a window
	// that is not contiguous with the one it holds (double-counting or
	// dropping contributions), or finishes without the reduction result.
	RuleCollCoverage = "proto-coll-coverage"
	// RuleCollProgress: a collective schedule cannot complete — some rank
	// blocks on a message no peer ever sends.
	RuleCollProgress = "proto-coll-progress"
)

// ProtoRules lists every protocol checker rule with a one-line doc, for
// zplvet -rules.
func ProtoRules() [][2]string {
	return [][2]string{
		{RulePairAsymmetry, "send/receive pair tables not transpose-symmetric on the mesh"},
		{RuleInflightOverflow, "per-pair in-flight transfers exceed the runtime channel capacity"},
		{RuleCollPairing, "collective schedule hops not pairwise matched across ranks"},
		{RuleCollCoverage, "collective schedule folds without covering every contribution exactly once"},
		{RuleCollProgress, "collective schedule cannot complete (rank waits forever)"},
	}
}

// Check runs the protocol checker for one machine binding: pairing
// symmetry, the in-flight bound against capacity (pass
// rt.PairChanCap(plan), or a mailbox bound) and the collective rules. The
// plan's own structure is comm.CheckPlan's to check.
//
// For programs that are not statically predictable it returns an error
// wrapping ErrNotStatic; any other analysis error is returned as-is.
func Check(prog *ir.Program, plan *comm.Plan, cfg Config, capacity int) ([]diag.Finding, error) {
	c := &checker{plan: plan}
	w, err := analyze(prog, plan, cfg)
	if err != nil {
		return nil, err
	}
	c.shapes(w, capacity)
	c.collectives(w)
	return c.findings, nil
}

type checker struct {
	plan     *comm.Plan
	findings []diag.Finding
}

func (c *checker) report(rule string, pos zpl.Pos, format string, args ...any) {
	c.findings = append(c.findings, diag.Finding{
		Rule: rule, Severity: diag.Error, Pos: pos,
		Msg: fmt.Sprintf(format, args...),
	})
}

func transferPos(t *comm.Transfer) zpl.Pos {
	if len(t.Sites) > 0 {
		return t.Sites[0].Pos
	}
	return zpl.Pos{}
}

// shapes runs the shape-dependent checks over everything the walk
// resolved: pairing symmetry per shape and the in-flight bound per block.
func (c *checker) shapes(w *walker, capacity int) {
	// Deterministic order over the shape cache.
	keys := make([]shapeKey, 0, len(w.shapes))
	for k := range w.shapes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.t.ID != b.t.ID {
			return a.t.ID < b.t.ID
		}
		return a.reg.String() < b.reg.String()
	})
	for _, k := range keys {
		c.checkPairing(k.t, w.shapes[k])
	}

	active := activeSets(w)
	for i, bp := range c.plan.Blocks {
		c.checkInflight(i, bp, active, capacity)
	}
	c.checkPreheaderInflight(active, capacity)
}

// checkPairing verifies one shape's send table is the exact transpose of
// its receive table: whenever rank a sends b bytes to rank p, rank p
// expects exactly b bytes from rank a, and vice versa.
func (c *checker) checkPairing(t *comm.Transfer, sh *shape) {
	n := len(sh.sends)
	find := func(tab [][]pair, rank, peer int) (int, bool) {
		for _, pr := range tab[rank] {
			if pr.peer == peer {
				return pr.bytes, true
			}
		}
		return 0, false
	}
	for a := 0; a < n; a++ {
		for _, pr := range sh.sends[a] {
			got, ok := find(sh.recvs, pr.peer, a)
			if !ok {
				c.report(RulePairAsymmetry, transferPos(t),
					"transfer %v over %v: proc %d sends %d bytes to proc %d, which expects nothing from it",
					t, sh.reg, a, pr.bytes, pr.peer)
			} else if got != pr.bytes {
				c.report(RulePairAsymmetry, transferPos(t),
					"transfer %v over %v: proc %d sends %d bytes to proc %d, which expects %d",
					t, sh.reg, a, pr.bytes, pr.peer, got)
			}
		}
		for _, pr := range sh.recvs[a] {
			if _, ok := find(sh.sends, pr.peer, a); !ok {
				c.report(RulePairAsymmetry, transferPos(t),
					"transfer %v over %v: proc %d expects %d bytes from proc %d, which sends it nothing",
					t, sh.reg, a, pr.bytes, pr.peer)
			}
		}
	}
}

// activeSet is the union, over every shape a transfer resolved to, of
// the directed pairs that participate under the library binding.
type activeSet struct {
	sends map[[2]int]bool // {from, to}
	recvs map[[2]int]bool // {from, to} keyed the same way (sender first)
}

func activeSets(w *walker) map[*comm.Transfer]*activeSet {
	out := map[*comm.Transfer]*activeSet{}
	for k, sh := range w.shapes {
		as := out[k.t]
		if as == nil {
			as = &activeSet{sends: map[[2]int]bool{}, recvs: map[[2]int]bool{}}
			out[k.t] = as
		}
		for rank, prs := range sh.sends {
			for _, pr := range prs {
				if pr.active(w.lib) {
					as.sends[[2]int{rank, pr.peer}] = true
				}
			}
		}
		for rank, prs := range sh.recvs {
			for _, pr := range prs {
				if pr.active(w.lib) {
					as.recvs[[2]int{pr.peer, rank}] = true
				}
			}
		}
	}
	return out
}

// checkInflight bounds, per directed processor pair, how many transfers
// can be in flight (SR executed, DN not yet) at once within one block
// execution, and verifies the runtime's channel capacity covers two full
// executions of that worst case plus the rendezvous token — the 2T+2
// argument of DESIGN.md §13, now computed per pair instead of bounded by
// the block's transfer count.
func (c *checker) checkInflight(blk int, bp *comm.BlockPlan, active map[*comm.Transfer]*activeSet, capacity int) {
	counts := map[[2]int]int{}
	maxIn := map[[2]int]int{}
	for _, calls := range bp.Calls {
		for _, call := range calls {
			as := active[call.T]
			if as == nil {
				continue
			}
			switch call.Kind {
			case comm.SR:
				for p := range as.sends {
					counts[p]++
					if counts[p] > maxIn[p] {
						maxIn[p] = counts[p]
					}
				}
			case comm.DN:
				for p := range as.recvs {
					counts[p]--
				}
			}
		}
	}
	c.reportInflight(maxIn, capacity, func(p [2]int, m int) string {
		return fmt.Sprintf("block %d: up to %d transfers in flight from proc %d to proc %d need channel capacity %d, runtime allocates %d",
			blk, m, p[0], p[1], 2*m+2, capacity)
	}, bp.Transfers)
}

// checkPreheaderInflight applies the same bound to the preheaders, where
// each hoisted transfer runs DR..SV synchronously: at most one in flight
// on any pair, whichever loop's preheader lists it. Hoisted transfers stay
// listed on their blocks, so no loop walk is needed to find them.
func (c *checker) checkPreheaderInflight(active map[*comm.Transfer]*activeSet, capacity int) {
	maxIn := map[[2]int]int{}
	var ts []*comm.Transfer
	for _, bp := range c.plan.Blocks {
		for _, t := range bp.Transfers {
			if as := active[t]; t.Hoisted && as != nil {
				ts = append(ts, t)
				for p := range as.sends {
					maxIn[p] = 1
				}
			}
		}
	}
	c.reportInflight(maxIn, capacity, func(p [2]int, m int) string {
		return fmt.Sprintf("preheader: up to %d transfers in flight from proc %d to proc %d need channel capacity %d, runtime allocates %d",
			m, p[0], p[1], 2*m+2, capacity)
	}, ts)
}

// collectives verifies every algorithm eligible on the run's mesh — not
// just the selected one, since Config.Collective or a different library
// could pick any of them — against the three collective rules: hop
// pairing, fold coverage and progress. Skipped when the plan has no
// reduction sites or the mesh is a single processor (the runtime builds
// no schedule there).
func (c *checker) collectives(w *walker) {
	if len(c.plan.Collectives) == 0 || w.lay.mesh.Size() == 1 {
		return
	}
	pos := c.plan.Collectives[0].Pos
	for _, a := range collective.Algorithms() {
		if !collective.Eligible(a, w.lay.mesh) {
			continue
		}
		c.checkCollective(a.String(), collective.AllSteps(a, w.lay.mesh), pos)
	}
}

// checkCollective runs the pairing rule and the coverage/progress replay
// over one schedule set (steps[r] is rank r's hops).
func (c *checker) checkCollective(name string, steps [][]collective.Step, pos zpl.Pos) {
	if c.collPairing(name, steps, pos) {
		c.collReplay(name, steps, pos)
	}
}

type collEdge struct{ src, dst int }

// collPairing checks that every send has exactly one matching receive
// with the same payload on its directed edge and vice versa, and that no
// edge carries two messages in one reduction — the invariants the
// replay's one arrival time per receive slot, and the runtime's departure
// time of a hop (its arrival less the receive's WireDelay), rest on. Returns
// false when the schedule is too malformed for the replay to add signal.
func (c *checker) collPairing(name string, steps [][]collective.Step, pos zpl.Pos) bool {
	sends := map[collEdge][]collective.Step{}
	recvs := map[collEdge][]collective.Step{}
	for r, ss := range steps {
		for _, st := range ss {
			if st.Kind == collective.Send {
				e := collEdge{r, st.Peer}
				sends[e] = append(sends[e], st)
			} else {
				e := collEdge{st.Peer, r}
				recvs[e] = append(recvs[e], st)
			}
		}
	}
	ok := true
	for e, ss := range sends {
		if len(ss) > 1 {
			c.report(RuleCollPairing, pos,
				"collective %s: rank %d sends %d messages to rank %d in one reduction; one slot per receive admits one",
				name, e.src, len(ss), e.dst)
			ok = false
			continue
		}
		rr := recvs[e]
		switch {
		case len(rr) == 0:
			c.report(RuleCollPairing, pos,
				"collective %s: rank %d sends %d values to rank %d, which never receives them",
				name, e.src, ss[0].Count, e.dst)
			ok = false
		case rr[0].Count != ss[0].Count || rr[0].Bcast != ss[0].Bcast:
			c.report(RuleCollPairing, pos,
				"collective %s: rank %d sends %d values (bcast=%v) to rank %d, which expects %d (bcast=%v)",
				name, e.src, ss[0].Count, ss[0].Bcast, e.dst, rr[0].Count, rr[0].Bcast)
			ok = false
		}
	}
	for e, rr := range recvs {
		if len(sends[e]) == 0 {
			c.report(RuleCollPairing, pos,
				"collective %s: rank %d expects %d values from rank %d, which never sends them",
				name, e.dst, rr[0].Count, e.src)
			ok = false
		}
	}
	return ok
}

// collReplay replays the schedule's data flow the way the runtime's
// allreduce executes it — contiguous contribution windows growing by
// received hops, folded only when complete — reporting the first
// coverage violation (RuleCollCoverage) or stall (RuleCollProgress).
func (c *checker) collReplay(name string, steps [][]collective.Step, pos zpl.Pos) {
	p := len(steps)
	type win struct {
		start, count int
		bcast        bool
	}
	inflight := map[collEdge][]win{}
	base := make([]int, p)
	cnt := make([]int, p)
	done := make([]bool, p) // rank holds the folded result
	idx := make([]int, p)
	remaining := 0
	for r := range steps {
		base[r], cnt[r] = r, 1
		remaining += len(steps[r])
	}
	for remaining > 0 {
		progress := false
		for r := 0; r < p; r++ {
			for idx[r] < len(steps[r]) {
				st := steps[r][idx[r]]
				if st.Kind == collective.Send {
					e := collEdge{r, st.Peer}
					if st.Bcast {
						if !done[r] && (base[r] != 0 || cnt[r] != p) {
							c.report(RuleCollCoverage, pos,
								"collective %s: rank %d folds holding contributions [%d,%d) of %d — the result would drop ranks",
								name, r, base[r], base[r]+cnt[r], p)
							return
						}
						done[r] = true
						inflight[e] = append(inflight[e], win{bcast: true, count: 1})
					} else {
						if st.Count != cnt[r] {
							c.report(RuleCollCoverage, pos,
								"collective %s: rank %d sends %d values but holds %d contributions",
								name, r, st.Count, cnt[r])
							return
						}
						inflight[e] = append(inflight[e], win{start: base[r], count: cnt[r]})
					}
				} else {
					e := collEdge{st.Peer, r}
					q := inflight[e]
					if len(q) == 0 {
						break // blocked; revisit after the peer progresses
					}
					m := q[0]
					inflight[e] = q[1:]
					if m.bcast {
						done[r] = true
					} else {
						switch {
						case m.start == base[r]+cnt[r]:
							cnt[r] += m.count
						case m.start+m.count == base[r]:
							base[r] = m.start
							cnt[r] += m.count
						default:
							c.report(RuleCollCoverage, pos,
								"collective %s: rank %d receives contributions [%d,%d) not contiguous with its window [%d,%d) — double-counting or dropping ranks",
								name, r, m.start, m.start+m.count, base[r], base[r]+cnt[r])
							return
						}
					}
				}
				idx[r]++
				remaining--
				progress = true
			}
		}
		if !progress {
			for r := 0; r < p; r++ {
				if idx[r] < len(steps[r]) {
					st := steps[r][idx[r]]
					c.report(RuleCollProgress, pos,
						"collective %s: rank %d blocks at step %d waiting for a level-%d message from rank %d that is never sent",
						name, r, idx[r], st.Level, st.Peer)
					return
				}
			}
		}
	}
	for r := 0; r < p; r++ {
		if !done[r] && !(base[r] == 0 && cnt[r] == p) {
			c.report(RuleCollCoverage, pos,
				"collective %s: rank %d finishes holding [%d,%d) of %d contributions and never receives the result",
				name, r, base[r], base[r]+cnt[r], p)
			return
		}
	}
}

func (c *checker) reportInflight(maxIn map[[2]int]int, capacity int, msg func([2]int, int) string, ts []*comm.Transfer) {
	worst, have := [2]int{}, 0
	for p, m := range maxIn {
		if m > have || (m == have && (p[0] < worst[0] || (p[0] == worst[0] && p[1] < worst[1]))) {
			worst, have = p, m
		}
	}
	if have == 0 || 2*have+2 <= capacity {
		return
	}
	pos := zpl.Pos{}
	if len(ts) > 0 {
		pos = transferPos(ts[0])
	}
	c.report(RuleInflightOverflow, pos, "%s", msg(worst, have))
}
