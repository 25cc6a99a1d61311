// Package collective defines the allreduce algorithms the runtime can
// execute and the closed-form machinery that picks between them: per-rank
// hop schedules (Steps), eligibility per mesh (Eligible), LogGP-style hop
// pricing shared with the runtime and the static predictor (SendCost,
// RecvCost, WireDelay), an exact virtual-time mini-simulator over the
// schedules (Simulate, Cost), per-rank message/byte/overhead profiles
// (Profile) and cost-model-driven selection (Select).
//
// Every algorithm is expressed as the same thing the runtime executes: a
// per-rank sequence of point-to-point hops. A hop either contributes raw
// values toward the fold (a gather hop, carrying a contiguous window of
// the rank-indexed contribution vector) or distributes the folded result
// (a broadcast hop, Bcast, carrying one value). Keeping every algorithm
// gather-based — the full contribution vector reaches one point, or every
// point, before folding — preserves the runtime's deterministic rank-order
// combine: floating-point reduction results are bit-identical across all
// algorithms, mesh shapes and libraries, which is what the differential
// tests assert.
//
// Hop pricing charges each hop the library's full software cost, split
// by the side that performs it: the sender pays the send path (SR
// initiation plus SV buffer reclaim), the receiver pays the receive path
// (DR posting readiness plus DN completion), and the payload adds the
// per-byte and wire terms. Unlike point-to-point rendezvous transfers,
// the sender never blocks on the receiver's readiness: collective slots
// are preallocated, one per receive and sequence parity, so readiness is
// posted ahead of the put — DR remains a software charge on the
// receiving rank, not a synchronization. What distinguishes algorithms
// is therefore only their hop pattern. The runtime charges exactly these
// costs per hop; Simulate replays them exactly; cost.Predict therefore
// matches rt.Run to the nanosecond.
package collective

import (
	"fmt"

	"commopt/internal/grid"
	"commopt/internal/machine"
	"commopt/internal/vtime"
)

// ValBytes is the wire size of one reduction element (a float64).
const ValBytes = 8

// Alg identifies an allreduce algorithm.
type Alg int

const (
	// Auto defers the choice to Select: the cheapest eligible algorithm
	// under the binding's cost model.
	Auto Alg = iota
	// Star gathers every contribution at rank 0, folds once and sends the
	// result back point-to-point: 2(P-1) messages, all through one root.
	Star
	// Tree gathers up a binomial tree (any P) and broadcasts back down
	// it: 2(P-1) messages over 2·ceil(log2 P) levels.
	Tree
	// Butterfly is recursive doubling (P a power of two): log2 P exchange
	// rounds after which every rank holds the full contribution vector
	// and folds locally — no broadcast phase at all.
	Butterfly
	// TwoLevel gathers each mesh row at its row leader, gathers the row
	// windows at rank 0, and broadcasts back through the leaders. On wide
	// meshes this caps any single rank's fan-in at max(Rows, Cols)-1,
	// the role reduce_scatter+allgather plays for vector reductions.
	TwoLevel
)

var algNames = [...]string{"auto", "star", "tree", "butterfly", "twolevel"}

func (a Alg) String() string {
	if a < 0 || int(a) >= len(algNames) {
		return fmt.Sprintf("alg(%d)", int(a))
	}
	return algNames[a]
}

// ParseAlg resolves an algorithm name as accepted by the CLIs.
func ParseAlg(s string) (Alg, error) {
	for i, n := range algNames {
		if s == n {
			return Alg(i), nil
		}
	}
	return Auto, fmt.Errorf("collective: unknown algorithm %q (want auto, star, tree, butterfly or twolevel)", s)
}

// Algorithms lists the concrete algorithms in selection tie-break order.
func Algorithms() []Alg { return []Alg{Star, Tree, Butterfly, TwoLevel} }

// StepKind distinguishes the two hop directions of a schedule.
type StepKind int

const (
	Send StepKind = iota
	Recv
)

// Step is one hop of one rank's schedule. Gather hops (Bcast false) carry
// Count contiguous raw contributions; broadcast hops (Bcast true) carry
// the folded result (Count 1). Level is the algorithm round the hop
// belongs to, used for trace labeling and nothing else.
type Step struct {
	Kind  StepKind
	Peer  int
	Count int
	Level int
	Bcast bool
}

// Eligible reports whether the algorithm can run on the mesh. Star and
// Tree work everywhere; Butterfly needs a power-of-two rank count (its
// exchange windows halve exactly); TwoLevel needs a genuinely 2-D mesh
// (on a 1×P or P×1 mesh it degenerates to Star).
func Eligible(a Alg, mesh grid.Mesh) bool {
	p := mesh.Size()
	switch a {
	case Star, Tree:
		return true
	case Butterfly:
		return p&(p-1) == 0
	case TwoLevel:
		return mesh.Rows > 1 && mesh.Cols > 1
	}
	return false
}

// Resolve turns a configured algorithm into the concrete one a run will
// execute: Auto selects by cost, anything else is validated against the
// mesh. The runtime and the static predictor both resolve through here,
// which is what keeps their choices identical.
func Resolve(a Alg, lib *machine.Lib, mesh grid.Mesh) (Alg, error) {
	if a == Auto {
		return Select(lib, mesh), nil
	}
	if !Eligible(a, mesh) {
		return Auto, fmt.Errorf("collective: algorithm %s is not eligible on a %dx%d mesh (%d procs)",
			a, mesh.Rows, mesh.Cols, mesh.Size())
	}
	return a, nil
}

// Steps returns rank's hop schedule for the algorithm on the mesh, in
// execution order. It panics on an ineligible algorithm — Resolve
// validates eligibility before any schedule is built. A 1-proc mesh has
// no hops under any algorithm.
func Steps(a Alg, mesh grid.Mesh, rank int) []Step {
	if !Eligible(a, mesh) {
		panic(fmt.Sprintf("collective: %s not eligible on %dx%d", a, mesh.Rows, mesh.Cols))
	}
	p := mesh.Size()
	if p == 1 {
		return nil
	}
	switch a {
	case Star:
		return starSteps(p, rank)
	case Tree:
		return treeSteps(p, rank)
	case Butterfly:
		return butterflySteps(p, rank)
	case TwoLevel:
		return twoLevelSteps(mesh, rank)
	}
	panic(fmt.Sprintf("collective: no schedule for %s", a))
}

// AllSteps returns every rank's schedule (AllSteps(a, m)[r] == Steps(a, m, r)).
func AllSteps(a Alg, mesh grid.Mesh) [][]Step {
	out := make([][]Step, mesh.Size())
	for r := range out {
		out[r] = Steps(a, mesh, r)
	}
	return out
}

// starSteps: every rank sends its contribution to rank 0; rank 0 folds
// and sends the result back to each rank. Receives happen in rank order
// — the root's fold is over the rank-indexed vector either way, but the
// deterministic order is what the scheduler's virtual clock replays.
func starSteps(p, rank int) []Step {
	if rank == 0 {
		steps := make([]Step, 0, 2*(p-1))
		for r := 1; r < p; r++ {
			steps = append(steps, Step{Kind: Recv, Peer: r, Count: 1, Level: 0})
		}
		for r := 1; r < p; r++ {
			steps = append(steps, Step{Kind: Send, Peer: r, Count: 1, Level: 1, Bcast: true})
		}
		return steps
	}
	return []Step{
		{Kind: Send, Peer: 0, Count: 1, Level: 0},
		{Kind: Recv, Peer: 0, Count: 1, Level: 1, Bcast: true},
	}
}

// treeSteps: binomial gather then a mirrored binomial broadcast. At
// gather level k (mask 2^k) a rank holds the contiguous window
// [rank, min(rank+2^k, P)); ranks with bit k set send their window to
// rank-2^k and drop out, the rest absorb their partner's window. The
// broadcast retraces the same edges: each rank receives the result from
// the parent it gathered into and forwards it to the children it
// gathered from, highest level first.
func treeSteps(p, rank int) []Step {
	var steps []Step
	levels := 0
	for 1<<levels < p {
		levels++
	}
	// Gather phase.
	sentAt := levels // first level at which this rank has already sent
	for k := 0; k < levels; k++ {
		mask := 1 << k
		if rank&mask != 0 {
			cnt := minInt(rank+mask, p) - rank
			steps = append(steps, Step{Kind: Send, Peer: rank - mask, Count: cnt, Level: k})
			sentAt = k
			break
		}
		if q := rank + mask; q < p {
			cnt := minInt(q+mask, p) - q
			steps = append(steps, Step{Kind: Recv, Peer: q, Count: cnt, Level: k})
		}
	}
	// Broadcast phase: receive from the gather parent (none for the
	// root), then forward to each gather child, top level down.
	if rank != 0 {
		steps = append(steps, Step{Kind: Recv, Peer: rank - 1<<sentAt, Count: 1, Level: sentAt, Bcast: true})
	}
	for k := sentAt - 1; k >= 0; k-- {
		if q := rank + 1<<k; q < p {
			steps = append(steps, Step{Kind: Send, Peer: q, Count: 1, Level: k, Bcast: true})
		}
	}
	return steps
}

// butterflySteps: recursive doubling. Before round k a rank holds the
// window [rank &^ (2^k - 1), +2^k); it swaps windows with rank ^ 2^k,
// doubling the window each round. After log2 P rounds every rank holds
// all P contributions and folds locally — there is no broadcast phase.
func butterflySteps(p, rank int) []Step {
	var steps []Step
	for k := 0; 1<<k < p; k++ {
		peer := rank ^ 1<<k
		cnt := 1 << k
		steps = append(steps,
			Step{Kind: Send, Peer: peer, Count: cnt, Level: k},
			Step{Kind: Recv, Peer: peer, Count: cnt, Level: k})
	}
	return steps
}

// twoLevelSteps: gather along mesh rows first (level 0), then gather the
// row windows at rank 0 (level 1); the result flows back through the row
// leaders (levels 2 and 3). Row-major rank order makes each row's
// contributions a contiguous window, so the leader forwards one message
// of Cols values.
func twoLevelSteps(mesh grid.Mesh, rank int) []Step {
	rows, cols := mesh.Rows, mesh.Cols
	row := rank / cols
	leader := row * cols
	if rank != leader {
		return []Step{
			{Kind: Send, Peer: leader, Count: 1, Level: 0},
			{Kind: Recv, Peer: leader, Count: 1, Level: 3, Bcast: true},
		}
	}
	var steps []Step
	for c := 1; c < cols; c++ {
		steps = append(steps, Step{Kind: Recv, Peer: leader + c, Count: 1, Level: 0})
	}
	if rank != 0 {
		steps = append(steps,
			Step{Kind: Send, Peer: 0, Count: cols, Level: 1},
			Step{Kind: Recv, Peer: 0, Count: 1, Level: 2, Bcast: true})
	} else {
		for r := 1; r < rows; r++ {
			steps = append(steps, Step{Kind: Recv, Peer: r * cols, Count: cols, Level: 1})
		}
		for r := 1; r < rows; r++ {
			steps = append(steps, Step{Kind: Send, Peer: r * cols, Count: 1, Level: 2, Bcast: true})
		}
	}
	for c := 1; c < cols; c++ {
		steps = append(steps, Step{Kind: Send, Peer: leader + c, Count: 1, Level: 3, Bcast: true})
	}
	return steps
}

// SendCost is the sender-side software overhead of one hop carrying
// count values: SR initiation, SV buffer reclaim and per-byte injection.
func SendCost(lib *machine.Lib, count int) vtime.Duration {
	return lib.SRCost + lib.SVCost + machine.PerByteDur(lib.SRPerByte, ValBytes*count)
}

// RecvCost is the receiver-side software overhead of one hop: DR slot
// readiness, DN completion and per-byte drain.
func RecvCost(lib *machine.Lib, count int) vtime.Duration {
	return lib.DRCost + lib.DNCost + machine.PerByteDur(lib.DNPerByte, ValBytes*count)
}

// WireDelay is the network time of one hop — the message is available at
// the receiver this long after the sender finishes SendCost. It overlaps
// with whatever the endpoints do next.
func WireDelay(lib *machine.Lib, count int) vtime.Duration {
	return lib.Latency + machine.PerByteDur(lib.WirePerByte, ValBytes*count)
}

// Simulate replays a full schedule set (steps[r] is rank r's hops) on
// per-rank virtual clocks exactly the way the runtime executes it: a
// send charges SendCost and makes the message available WireDelay later;
// a receive blocks until its message is available, then charges
// RecvCost. It returns the latest rank's finish time, or an error naming
// a stuck rank if the schedules cannot complete — which is how the
// protocol checker's progress rule detects corrupted schedules.
func Simulate(steps [][]Step, lib *machine.Lib) (vtime.Duration, error) {
	p := len(steps)
	clocks := make([]vtime.Time, p)
	idx := make([]int, p)
	type edge struct{ src, dst int }
	inflight := map[edge][]vtime.Time{}
	remaining := 0
	for _, s := range steps {
		remaining += len(s)
	}
	for remaining > 0 {
		progress := false
		for r := 0; r < p; r++ {
			for idx[r] < len(steps[r]) {
				st := steps[r][idx[r]]
				if st.Kind == Send {
					clocks[r] = clocks[r].Add(SendCost(lib, st.Count))
					e := edge{r, st.Peer}
					inflight[e] = append(inflight[e], clocks[r].Add(WireDelay(lib, st.Count)))
				} else {
					e := edge{st.Peer, r}
					q := inflight[e]
					if len(q) == 0 {
						break // blocked; revisit after the peer progresses
					}
					avail := q[0]
					inflight[e] = q[1:]
					if avail > clocks[r] {
						clocks[r] = avail
					}
					clocks[r] = clocks[r].Add(RecvCost(lib, st.Count))
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
					return 0, fmt.Errorf("collective: rank %d stuck at step %d waiting for a level-%d message from rank %d that is never sent",
						r, idx[r], st.Level, st.Peer)
				}
			}
		}
	}
	var d vtime.Duration
	for _, c := range clocks {
		if vtime.Duration(c) > d {
			d = vtime.Duration(c)
		}
	}
	return d, nil
}

// Cost prices one reduction under the algorithm on the mesh: the
// critical-path virtual time of its full schedule. Zero on one proc.
func Cost(a Alg, lib *machine.Lib, mesh grid.Mesh) vtime.Duration {
	if mesh.Size() == 1 {
		return 0
	}
	d, err := Simulate(AllSteps(a, mesh), lib)
	if err != nil {
		// Schedules generated by Steps always complete; a stall here is a
		// bug in the generator itself.
		panic(err)
	}
	return d
}

// RankCost is one rank's share of a reduction: its software overhead
// (excluding blocked waits, which depend on global timing) and the
// messages and bytes it sends. These are exactly the per-rank charges
// the runtime records, which is what lets cost.Predict match rt.Run with
// exact equality.
type RankCost struct {
	Comm  vtime.Duration
	Msgs  int
	Bytes int64
}

// Profile returns every rank's RankCost for one reduction.
func Profile(a Alg, lib *machine.Lib, mesh grid.Mesh) []RankCost {
	out := make([]RankCost, mesh.Size())
	if mesh.Size() == 1 {
		return out
	}
	for r := range out {
		for _, st := range Steps(a, mesh, r) {
			if st.Kind == Send {
				out[r].Comm += SendCost(lib, st.Count)
				out[r].Msgs++
				out[r].Bytes += ValBytes * int64(st.Count)
			} else {
				out[r].Comm += RecvCost(lib, st.Count)
			}
		}
	}
	return out
}

// Select returns the cheapest eligible algorithm for the binding, by
// simulated critical-path cost; ties break toward the earlier entry of
// Algorithms. Auto resolves through here on both the runtime and the
// predictor, so a run and its prediction always execute the same shape.
func Select(lib *machine.Lib, mesh grid.Mesh) Alg {
	best, bestCost := Auto, vtime.Duration(0)
	for _, a := range Algorithms() {
		if !Eligible(a, mesh) {
			continue
		}
		c := Cost(a, lib, mesh)
		if best == Auto || c < bestCost {
			best, bestCost = a, c
		}
	}
	return best
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
