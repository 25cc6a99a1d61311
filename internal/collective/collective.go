// Package collective defines the allreduce algorithms the runtime can
// execute and the closed-form machinery that picks between them: per-rank
// hop schedules, built and paired once per algorithm and mesh (Schedule,
// Build), eligibility per mesh (Eligible), LogGP-style hop pricing shared
// with the runtime and the static predictor (SendCost, RecvCost,
// WireDelay), an exact virtual-time replay of a schedule from any entry
// clocks over its receive slots (Schedule.Replay), per-rank
// message/byte/overhead profiles (Schedule.Profile) and cost-model-driven
// selection (Choose, Select).
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
// the sender never blocks on the receiver's readiness: every receive has
// its own slot, so readiness is posted ahead of the put — DR remains a
// software charge on the receiving rank, not a synchronization. What
// distinguishes algorithms is therefore only their hop pattern. The
// runtime replays the schedule once per reduction from its ranks' entry
// clocks and charges every hop these costs at the arrival times the
// replay computes, and cost.Predict prices the same schedule, so it
// matches rt.Run to the nanosecond.
package collective

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

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
type StepKind uint8

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
	Bcast bool
	Peer  int
	Count int
	Level int
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
// mesh, and an ineligible one is an error.
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

// Schedule is one algorithm's hops on one mesh, built once and paired
// once. Steps[r] is rank r's hops in execution order. To[r][i] is the
// receive slot step i names: its own when it is a receive, the one it
// fills at its peer when it is a send. A rank's receive slots are
// numbered 0, 1, ... in schedule order. Every rank's steps are slices of
// one backing array, and so are their slots. The runtime executes it, the
// predictor prices it and Select replays it, none of them rebuilding it.
type Schedule struct {
	Alg   Alg
	Steps [][]Step
	To    [][]int32
	first []int32 // first[r]: rank r's slot 0 among every rank's slots; first[len(Steps)] counts them all
}

// Build returns the algorithm's paired schedule on the mesh. It panics on
// an ineligible algorithm, as AllSteps does, and on a schedule that does
// not pair, which would be a bug in the generator itself.
func Build(a Alg, mesh grid.Mesh) *Schedule {
	s, err := pair(AllSteps(a, mesh))
	if err != nil {
		panic(err)
	}
	s.Alg = a
	return s
}

// AllSteps returns every rank's hop schedule for the algorithm on the
// mesh, in execution order, all slices of one backing array. It panics on
// an ineligible algorithm — Resolve validates eligibility before any
// schedule is built. A 1-proc mesh has no hops under any algorithm.
func AllSteps(a Alg, mesh grid.Mesh) [][]Step {
	if !Eligible(a, mesh) {
		panic(fmt.Sprintf("collective: %s not eligible on %dx%d", a, mesh.Rows, mesh.Cols))
	}
	p := mesh.Size()
	n := 4 * (p - 1) // gather and broadcast: 2(P-1) messages, a send and a receive each
	if a == Butterfly {
		n = 2 * p * bits.Len(uint(p-1)) // P·log2 P messages
	}
	flat, steps := make([]Step, 0, n), make([][]Step, p)
	for r := range steps {
		at := len(flat)
		switch a {
		case Star:
			flat = starSteps(flat, p, r)
		case Tree:
			flat = treeSteps(flat, p, r)
		case Butterfly:
			flat = butterflySteps(flat, p, r)
		case TwoLevel:
			flat = twoLevelSteps(flat, mesh, r)
		}
		steps[r] = flat[at:len(flat):len(flat)]
	}
	if len(flat) != n {
		panic(fmt.Sprintf("collective: %s on %dx%d has %d steps, want %d", a, mesh.Rows, mesh.Cols, len(flat), n))
	}
	return steps
}

// starSteps: every rank sends its contribution to rank 0; rank 0 folds
// and sends the result back to each rank. Receives happen in rank order
// — the root's fold is over the rank-indexed vector either way, but the
// deterministic order is what the scheduler's virtual clock replays.
func starSteps(steps []Step, p, rank int) []Step {
	if rank == 0 {
		for r := 1; r < p; r++ {
			steps = append(steps, Step{Kind: Recv, Peer: r, Count: 1, Level: 0})
		}
		for r := 1; r < p; r++ {
			steps = append(steps, Step{Kind: Send, Peer: r, Count: 1, Level: 1, Bcast: true})
		}
		return steps
	}
	return append(steps,
		Step{Kind: Send, Peer: 0, Count: 1, Level: 0},
		Step{Kind: Recv, Peer: 0, Count: 1, Level: 1, Bcast: true})
}

// treeSteps: binomial gather then a mirrored binomial broadcast. At
// gather level k (mask 2^k) a rank holds the contiguous window
// [rank, min(rank+2^k, P)); ranks with bit k set send their window to
// rank-2^k and drop out, the rest absorb their partner's window. The
// broadcast retraces the same edges: each rank receives the result from
// the parent it gathered into and forwards it to the children it
// gathered from, highest level first.
func treeSteps(steps []Step, p, rank int) []Step {
	levels := bits.Len(uint(p - 1))
	// Gather phase.
	sentAt := levels // first level at which this rank has already sent
	for k := 0; k < levels; k++ {
		mask := 1 << k
		if rank&mask != 0 {
			cnt := min(rank+mask, p) - rank
			steps = append(steps, Step{Kind: Send, Peer: rank - mask, Count: cnt, Level: k})
			sentAt = k
			break
		}
		if q := rank + mask; q < p {
			cnt := min(q+mask, p) - q
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
func butterflySteps(steps []Step, p, rank int) []Step {
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
func twoLevelSteps(steps []Step, mesh grid.Mesh, rank int) []Step {
	rows, cols := mesh.Rows, mesh.Cols
	row := rank / cols
	leader := row * cols
	if rank != leader {
		return append(steps,
			Step{Kind: Send, Peer: leader, Count: 1, Level: 0},
			Step{Kind: Recv, Peer: leader, Count: 1, Level: 3, Bcast: true})
	}
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

// send is one send for pairing: its source and destination ranks and its
// index in the source's schedule.
type send struct{ src, dst, step int32 }

// pair numbers every rank's receives in schedule order and points each
// send at the receive that takes it: the n-th send from rank s to rank q
// fills the n-th receive at q from s, as one FIFO per directed edge would
// deliver them. A counting sort orders the sends by destination, keeping
// rank order within each, so a receive finds its send by a binary search
// of its own rank's sends. A send no receive takes, or a receive no send
// fills, is an error.
func pair(steps [][]Step) (*Schedule, error) {
	p := len(steps)
	s := &Schedule{Steps: steps, To: make([][]int32, p), first: make([]int32, p+1)}
	n, at := 0, make([]int32, p+1) // at[q+1] counts the sends to rank q
	for _, ss := range steps {
		n += len(ss)
		for _, st := range ss {
			if st.Kind == Send {
				at[st.Peer+1]++
			}
		}
	}
	for q := 1; q <= p; q++ {
		at[q] += at[q-1]
	}
	sends, to := make([]send, at[p]), make([]int32, n)
	next := slices.Clone(at[:p])
	for r, ss := range steps {
		s.To[r], to = to[:len(ss):len(ss)], to[len(ss):]
		for i, st := range ss {
			if st.Kind == Send {
				sends[next[st.Peer]] = send{int32(r), int32(st.Peer), int32(i)}
				next[st.Peer]++
			}
		}
	}
	for q, ss := range steps {
		into := sends[at[q]:at[q+1]] // by source, then step
		k := int32(0)
		for i, st := range ss {
			if st.Kind != Recv {
				continue
			}
			j, _ := slices.BinarySearchFunc(into, int32(st.Peer), func(m send, src int32) int { return cmp.Compare(m.src, src) })
			for j < len(into) && into[j].src == int32(st.Peer) && into[j].step < 0 {
				j++ // taken by an earlier receive on this edge
			}
			if j == len(into) || into[j].src != int32(st.Peer) {
				return nil, fmt.Errorf("collective: rank %d's step %d receives from rank %d, which never sends to it", q, i, st.Peer)
			}
			s.To[q][i], s.To[st.Peer][into[j].step] = k, k
			into[j].step = -1
			k++
		}
		s.first[q+1] = s.first[q] + k
	}
	for _, m := range sends {
		if m.step >= 0 {
			return nil, fmt.Errorf("collective: rank %d's step %d sends to rank %d, which never receives from it", m.src, m.step, m.dst)
		}
	}
	return s, nil
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

// unsent marks a receive slot no send has filled yet.
const unsent vtime.Time = -1

// Slots is the number of receive slots over every rank: the length of the
// arrivals Replay fills.
func (s *Schedule) Slots() int { return int(s.first[len(s.Steps)]) }

// Slot is the index among every rank's receive slots of the one step i of
// rank r names: its own for a receive, its peer's for a send.
func (s *Schedule) Slot(r, i int) int {
	q := r
	if st := s.Steps[r][i]; st.Kind == Send {
		q = st.Peer
	}
	return int(s.first[q] + s.To[r][i])
}

// Replay replays the schedule on per-rank virtual clocks exactly the way
// the runtime charges it: a send charges SendCost and fills its peer's
// receive slot with the time the message arrives, WireDelay later; a
// receive waits until its slot is filled, then charges RecvCost. clocks[r]
// enters as rank r's clock when it joins the reduction and leaves as its
// clock when its last hop is done; avail (Slots long) leaves with the
// arrival time of every receive slot, by Slot; at (one per rank) is the
// replay's cursors, scratch the caller owns so that a replay per
// reduction allocates nothing. A schedule that cannot complete is an
// error naming a stuck rank, which is how a deadlocking hop order shows.
func (s *Schedule) Replay(lib *machine.Lib, clocks, avail []vtime.Time, at []int32) error {
	for i := range avail {
		avail[i] = unsent
	}
	remaining := 0
	for r, ss := range s.Steps {
		remaining += len(ss)
		at[r] = 0
	}
	for remaining > 0 {
		progress := false
		for r, ss := range s.Steps {
			i := int(at[r])
			for ; i < len(ss); i++ {
				st, k := ss[i], s.Slot(r, i)
				if st.Kind == Send {
					clocks[r] = clocks[r].Add(SendCost(lib, st.Count))
					avail[k] = clocks[r].Add(WireDelay(lib, st.Count))
					continue
				}
				t := avail[k]
				if t == unsent {
					break // blocked; revisit after the peer progresses
				}
				clocks[r] = max(clocks[r], t).Add(RecvCost(lib, st.Count))
			}
			if i > int(at[r]) {
				remaining -= i - int(at[r])
				at[r], progress = int32(i), true
			}
		}
		if !progress {
			for r, ss := range s.Steps {
				if i := int(at[r]); i < len(ss) {
					return fmt.Errorf("collective: rank %d stuck at step %d waiting for a level-%d message from rank %d that is never sent",
						r, i, ss[i].Level, ss[i].Peer)
				}
			}
		}
	}
	return nil
}

// span is the schedule's critical path from zero clocks: the latest
// rank's finish time of one reduction that every rank enters at once.
func (s *Schedule) span(lib *machine.Lib) (vtime.Duration, error) {
	p := len(s.Steps)
	clocks := make([]vtime.Time, p)
	if err := s.Replay(lib, clocks, make([]vtime.Time, s.Slots()), make([]int32, p)); err != nil {
		return 0, err
	}
	return vtime.Duration(slices.Max(clocks)), nil
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
func (s *Schedule) Profile(lib *machine.Lib) []RankCost {
	out := make([]RankCost, len(s.Steps))
	for r, ss := range s.Steps {
		for _, st := range ss {
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
// Algorithms.
func Select(lib *machine.Lib, mesh grid.Mesh) Alg {
	s, _ := Choose(Auto, lib, mesh)
	return s.Alg
}

// Choose resolves a configured algorithm as Resolve does and returns the
// schedule a run executes. Under Auto it builds and replays every
// eligible schedule once and keeps the cheapest, so nothing is built
// twice. The runtime and the static predictor both choose through here,
// so a run and its prediction always execute the same shape.
func Choose(a Alg, lib *machine.Lib, mesh grid.Mesh) (*Schedule, error) {
	if a != Auto {
		if _, err := Resolve(a, lib, mesh); err != nil {
			return nil, err
		}
		return Build(a, mesh), nil
	}
	var best *Schedule
	var bestCost vtime.Duration
	for _, a := range Algorithms() {
		if !Eligible(a, mesh) {
			continue
		}
		s := Build(a, mesh)
		c, err := s.span(lib)
		if err != nil {
			// Schedules Build pairs always complete; a stall here is a
			// bug in the generator itself.
			panic(err)
		}
		if best == nil || c < bestCost {
			best, bestCost = s, c
		}
	}
	return best, nil
}
