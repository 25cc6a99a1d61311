package collective

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"commopt/internal/grid"
	"commopt/internal/machine"
	"commopt/internal/vtime"
)

// Steps is one rank's schedule, as AllSteps builds it.
func Steps(a Alg, mesh grid.Mesh, rank int) []Step { return AllSteps(a, mesh)[rank] }

// Profile is Build(a, mesh).Profile(lib).
func Profile(a Alg, lib *machine.Lib, mesh grid.Mesh) []RankCost { return Build(a, mesh).Profile(lib) }

// Cost prices one reduction under the algorithm on the mesh: the
// critical-path virtual time of its full schedule. Zero on one proc.
func Cost(a Alg, lib *machine.Lib, mesh grid.Mesh) vtime.Duration {
	d, err := Build(a, mesh).span(lib)
	if err != nil {
		panic(err)
	}
	return d
}

// Simulate pairs a schedule set (steps[r] is rank r's hops) and replays
// it: an unpaired send or receive is an error, and so is a stall.
func Simulate(steps [][]Step, lib *machine.Lib) (vtime.Duration, error) {
	s, err := pair(steps)
	if err != nil {
		return 0, err
	}
	return s.span(lib)
}

// edgeSimulate is edgeReplay from zero clocks, returning the latest
// rank's finish time.
func edgeSimulate(steps [][]Step, lib *machine.Lib) (vtime.Duration, error) {
	clocks := make([]vtime.Time, len(steps))
	if _, err := edgeReplay(steps, lib, clocks); err != nil {
		return 0, err
	}
	return vtime.Duration(slices.Max(clocks)), nil
}

// edgeReplay is the reference replay Schedule.Replay is held to: one FIFO
// of arrival times per directed edge, in a map, matched to receives as
// they come. clocks enter as the ranks' entry clocks and leave as their
// exit clocks; arrivals[r][i] is when receive step i of rank r found its
// message. A message still in flight when every rank is done is an error
// too, as is a stall.
func edgeReplay(steps [][]Step, lib *machine.Lib, clocks []vtime.Time) (arrivals [][]vtime.Time, err error) {
	p := len(steps)
	idx := make([]int, p)
	arrivals = make([][]vtime.Time, p)
	type edge struct{ src, dst int }
	inflight := map[edge][]vtime.Time{}
	remaining := 0
	for r, s := range steps {
		remaining += len(s)
		arrivals[r] = make([]vtime.Time, len(s))
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
					arrivals[r][idx[r]] = avail
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
					return nil, fmt.Errorf("collective: rank %d stuck at step %d waiting for a level-%d message from rank %d that is never sent",
						r, idx[r], st.Level, st.Peer)
				}
			}
		}
	}
	for e, q := range inflight {
		if len(q) != 0 {
			return nil, fmt.Errorf("collective: %d messages from rank %d to rank %d never received", len(q), e.src, e.dst)
		}
	}
	return arrivals, nil
}

// testMeshes is the mesh sweep the schedule tests run over: powers of
// two, non-powers, primes, 1-D rows and one genuinely wide mesh.
func testMeshes(t *testing.T) []grid.Mesh {
	t.Helper()
	var out []grid.Mesh
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 16, 24, 64, 96, 100, 128, 1024} {
		m, err := grid.MeshFor(p)
		if err != nil {
			t.Fatalf("MeshFor(%d): %v", p, err)
		}
		out = append(out, m)
	}
	return out
}

func testLibs() []*machine.Lib {
	var libs []*machine.Lib
	for _, m := range machine.All() {
		for _, name := range m.LibNames() {
			l, err := m.Lib(name)
			if err != nil {
				panic(err)
			}
			libs = append(libs, l)
		}
	}
	return libs
}

// replay executes a schedule set the way the runtime does — contiguous
// gather windows, rank-order fold at the first broadcast send (or
// locally once the window covers everyone) — and returns each rank's
// result. The fold deliberately uses an order-sensitive combine so any
// deviation from strict rank order changes the answer.
func replay(t *testing.T, mesh grid.Mesh, steps [][]Step) []float64 {
	t.Helper()
	p := mesh.Size()
	combine := func(acc, v float64) float64 { return acc*2 + v }
	contrib := func(r int) float64 { return float64(r + 1) }

	vals := make([][]float64, p)
	base := make([]int, p)
	cnt := make([]int, p)
	idx := make([]int, p)
	result := make([]float64, p)
	have := make([]bool, p)
	for r := 0; r < p; r++ {
		vals[r] = make([]float64, p)
		vals[r][r] = contrib(r)
		base[r], cnt[r] = r, 1
	}
	fold := func(r int) float64 {
		if base[r] != 0 || cnt[r] != p {
			t.Fatalf("rank %d folds with incomplete window [%d,+%d) of %d", r, base[r], cnt[r], p)
		}
		acc := 0.0
		for _, v := range vals[r] {
			acc = combine(acc, v)
		}
		return acc
	}

	type payload struct {
		start int
		vals  []float64
		bcast bool
	}
	type edge struct{ src, dst int }
	wire := map[edge][]payload{}

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
					var pl payload
					if st.Bcast {
						if !have[r] {
							result[r], have[r] = fold(r), true
						}
						pl = payload{vals: []float64{result[r]}, bcast: true}
					} else {
						if st.Count != cnt[r] {
							t.Fatalf("rank %d send count %d but window holds %d", r, st.Count, cnt[r])
						}
						pl = payload{start: base[r], vals: append([]float64(nil), vals[r][base[r]:base[r]+cnt[r]]...)}
					}
					e := edge{r, st.Peer}
					wire[e] = append(wire[e], pl)
				} else {
					e := edge{st.Peer, r}
					q := wire[e]
					if len(q) == 0 {
						break
					}
					pl := q[0]
					wire[e] = q[1:]
					if pl.bcast != st.Bcast || len(pl.vals) != st.Count {
						t.Fatalf("rank %d recv mismatch: step %+v payload start=%d n=%d bcast=%v",
							r, st, pl.start, len(pl.vals), pl.bcast)
					}
					if st.Bcast {
						result[r], have[r] = pl.vals[0], true
					} else {
						copy(vals[r][pl.start:pl.start+len(pl.vals)], pl.vals)
						switch {
						case pl.start == base[r]+cnt[r]:
							cnt[r] += len(pl.vals)
						case pl.start+len(pl.vals) == base[r]:
							base[r], cnt[r] = pl.start, cnt[r]+len(pl.vals)
						default:
							t.Fatalf("rank %d non-contiguous gather: window [%d,+%d) got start %d",
								r, base[r], cnt[r], pl.start)
						}
					}
				}
				idx[r]++
				remaining--
				progress = true
			}
		}
		if !progress {
			t.Fatalf("schedule stalled: idx=%v", idx)
		}
	}
	for e, q := range wire {
		if len(q) != 0 {
			t.Fatalf("%d undelivered messages on edge %v", len(q), e)
		}
	}
	for r := 0; r < p; r++ {
		if !have[r] {
			result[r] = fold(r) // butterfly: no broadcast phase
		}
	}
	return result
}

// TestSchedulesComputeRankOrderFold is the core correctness property:
// every algorithm, on every mesh where it is eligible, delivers the
// strict rank-order fold of all contributions to every rank.
func TestSchedulesComputeRankOrderFold(t *testing.T) {
	for _, mesh := range testMeshes(t) {
		p := mesh.Size()
		want := 0.0
		for r := 0; r < p; r++ {
			want = want*2 + float64(r+1)
		}
		for _, a := range Algorithms() {
			if !Eligible(a, mesh) {
				continue
			}
			got := replay(t, mesh, AllSteps(a, mesh))
			for r, v := range got {
				if v != want {
					t.Fatalf("%s on %v: rank %d got %g want %g", a, mesh, r, v, want)
				}
			}
		}
	}
}

// TestMessageCounts pins each algorithm's total message count to its
// closed form.
func TestMessageCounts(t *testing.T) {
	for _, mesh := range testMeshes(t) {
		p := mesh.Size()
		logp := 0
		for 1<<logp < p {
			logp++
		}
		want := map[Alg]int{
			Star: 2 * (p - 1),
			Tree: 2 * (p - 1),
		}
		if Eligible(Butterfly, mesh) {
			want[Butterfly] = p * logp
		}
		if Eligible(TwoLevel, mesh) {
			want[TwoLevel] = 2*mesh.Rows*(mesh.Cols-1) + 2*(mesh.Rows-1)
		}
		for a, n := range want {
			got := 0
			for _, steps := range AllSteps(a, mesh) {
				for _, st := range steps {
					if st.Kind == Send {
						got++
					}
				}
			}
			if got != n {
				t.Errorf("%s on %v: %d messages, want %d", a, mesh, got, n)
			}
		}
	}
}

// TestProfileMatchesSteps checks Profile against a direct walk of the
// schedules, and that a lone proc costs nothing.
func TestProfileMatchesSteps(t *testing.T) {
	lib := testLibs()[0]
	for _, mesh := range testMeshes(t) {
		for _, a := range Algorithms() {
			if !Eligible(a, mesh) {
				continue
			}
			prof := Profile(a, lib, mesh)
			for r, rc := range prof {
				var want RankCost
				for _, st := range Steps(a, mesh, r) {
					if st.Kind == Send {
						want.Comm += SendCost(lib, st.Count)
						want.Msgs++
						want.Bytes += ValBytes * int64(st.Count)
					} else {
						want.Comm += RecvCost(lib, st.Count)
					}
				}
				if rc != want {
					t.Fatalf("%s on %v rank %d: profile %+v, walk %+v", a, mesh, r, rc, want)
				}
			}
			if mesh.Size() == 1 {
				if len(prof) != 1 || prof[0] != (RankCost{}) {
					t.Fatalf("%s on 1 proc: non-zero profile %+v", a, prof)
				}
			}
		}
	}
}

// TestSimulateDetectsStall corrupts a schedule (drops one send) and
// checks Simulate reports the stuck receiver instead of hanging — the
// property the protocol checker's progress rule builds on.
func TestSimulateDetectsStall(t *testing.T) {
	mesh, _ := grid.MeshFor(8)
	lib := testLibs()[0]
	for _, a := range Algorithms() {
		if !Eligible(a, mesh) {
			continue
		}
		steps := AllSteps(a, mesh)
		if _, err := Simulate(steps, lib); err != nil {
			t.Fatalf("%s: intact schedule errored: %v", a, err)
		}
		// Drop the first send of rank 1.
		mut := make([][]Step, len(steps))
		copy(mut, steps)
		var trimmed []Step
		dropped := false
		for _, st := range steps[1] {
			if !dropped && st.Kind == Send {
				dropped = true
				continue
			}
			trimmed = append(trimmed, st)
		}
		mut[1] = trimmed
		if _, err := Simulate(mut, lib); err == nil {
			t.Errorf("%s: dropped send not detected", a)
		}
	}
}

// TestSelectIsArgmin checks Select returns the cheapest eligible
// algorithm and that Resolve agrees and validates eligibility.
func TestSelectIsArgmin(t *testing.T) {
	for _, lib := range testLibs() {
		for _, mesh := range testMeshes(t) {
			best := Select(lib, mesh)
			if !Eligible(best, mesh) {
				t.Fatalf("Select chose ineligible %s on %v", best, mesh)
			}
			bestCost := Cost(best, lib, mesh)
			for _, a := range Algorithms() {
				if !Eligible(a, mesh) {
					continue
				}
				if c := Cost(a, lib, mesh); c < bestCost {
					t.Errorf("%v: Select chose %s (%v) but %s costs %v", mesh, best, bestCost, a, c)
				}
			}
			got, err := Resolve(Auto, lib, mesh)
			if err != nil || got != best {
				t.Fatalf("Resolve(Auto) = %s, %v; want %s", got, err, best)
			}
		}
	}
	// Forcing an ineligible algorithm is an error, not a panic.
	mesh, _ := grid.MeshFor(6) // 3x2: butterfly ineligible
	lib := testLibs()[0]
	if _, err := Resolve(Butterfly, lib, mesh); err == nil {
		t.Errorf("Resolve(Butterfly) on 6 procs: no error")
	}
}

// TestAlgorithmCrossover pins the headline selection results. The star
// is never the argmin — even at 2 procs butterfly's single symmetric
// round beats the star's two serialized hops — so the observable
// crossover is between the log-depth shapes: butterfly on power-of-two
// partitions, tree or two-level elsewhere, with the gap to the star
// growing to orders of magnitude at scale.
func TestAlgorithmCrossover(t *testing.T) {
	for _, lib := range testLibs() {
		small, _ := grid.MeshFor(2)
		if got := Select(lib, small); got != Butterfly {
			t.Errorf("%s at 2 procs: selected %s, want butterfly (one symmetric round beats the star's two hops)", lib.Name, got)
		}
		big, _ := grid.MeshFor(1024)
		if got := Select(lib, big); got != Butterfly {
			t.Errorf("%s at 1024 procs: selected %s, want butterfly", lib.Name, got)
		}
		if star, sel := Cost(Star, lib, big), Cost(Select(lib, big), lib, big); star < 10*sel {
			t.Errorf("%s at 1024 procs: star %v is within 10x of %s %v — expected an order-of-magnitude gap",
				lib.Name, star, Select(lib, big), sel)
		}
		// Off the power of two, butterfly is ineligible and a tree shape
		// takes over — the selection crossover the experiment tabulates.
		odd, _ := grid.MeshFor(96)
		if got := Select(lib, odd); got != Tree && got != TwoLevel {
			t.Errorf("%s at 96 procs: selected %s, want tree or twolevel", lib.Name, got)
		}
	}
}

func TestParseAlg(t *testing.T) {
	for _, a := range append([]Alg{Auto}, Algorithms()...) {
		got, err := ParseAlg(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAlg(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAlg("ring"); err == nil {
		t.Fatalf("ParseAlg(ring): no error")
	}
}

// allLibs is every library of the t3d, paragon and rdma machines.
func allLibs(t testing.TB) []*machine.Lib {
	var libs []*machine.Lib
	for _, name := range []string{"t3d", "paragon", "rdma"} {
		m, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ln := range m.LibNames() {
			l, err := m.Lib(ln)
			if err != nil {
				t.Fatal(err)
			}
			libs = append(libs, l)
		}
	}
	return libs
}

// drop returns steps without rank r's first step of the kind.
func drop(steps [][]Step, r int, kind StepKind) [][]Step {
	mut := make([][]Step, len(steps))
	copy(mut, steps)
	mut[r] = nil
	dropped := false
	for _, st := range steps[r] {
		if !dropped && st.Kind == kind {
			dropped = true
			continue
		}
		mut[r] = append(mut[r], st)
	}
	return mut
}

// TestSlotReplayMatchesEdgeReplay holds the receive-slot replay to the
// edge-FIFO reference: equal durations on every eligible schedule of
// P = 2..200 and the sizes the experiments sweep, under every library of
// every machine; from seeded random entry clocks, equal exit clocks on
// every rank and equal arrival times in every receive slot; the same
// Select choice for every (library, P); and an error from both when a
// schedule loses one send or one receive.
func TestSlotReplayMatchesEdgeReplay(t *testing.T) {
	rng := rand.New(rand.NewPCG(1997, 42))
	var sizes []int
	for p := 2; p <= 200; p++ {
		sizes = append(sizes, p)
	}
	sizes = append(sizes, 255, 256, 500, 512, 1000, 1024, 4096)
	libs := allLibs(t)
	compared := 0
	for _, p := range sizes {
		mesh, err := grid.MeshFor(p)
		if err != nil {
			t.Fatal(err)
		}
		var scheds []*Schedule
		for _, a := range Algorithms() {
			if Eligible(a, mesh) {
				scheds = append(scheds, Build(a, mesh))
			}
		}
		for _, lib := range libs {
			want, wantCost := Auto, vtime.Duration(0)
			for _, s := range scheds {
				got, err := s.span(lib)
				if err != nil {
					t.Fatalf("%s on %d procs (%s): %v", s.Alg, p, lib.Name, err)
				}
				ref, err := edgeSimulate(s.Steps, lib)
				if err != nil {
					t.Fatalf("%s on %d procs (%s): reference: %v", s.Alg, p, lib.Name, err)
				}
				if got != ref {
					t.Fatalf("%s on %d procs (%s): slot replay %v, edge replay %v", s.Alg, p, lib.Name, got, ref)
				}
				if want == Auto || ref < wantCost {
					want, wantCost = s.Alg, ref
				}
				replayFromClocks(t, s, lib, rng)
				compared++
			}
			if got := Select(lib, mesh); got != want {
				t.Fatalf("%d procs (%s): Select chose %s, the edge replay's argmin is %s", p, lib.Name, got, want)
			}
		}
		if p > 16 {
			continue
		}
		for _, s := range scheds {
			for r := range s.Steps {
				for _, kind := range []StepKind{Send, Recv} {
					mut := drop(s.Steps, r, kind)
					if _, err := Simulate(mut, libs[0]); err == nil {
						t.Fatalf("%s on %d procs: rank %d lost a step of kind %d, slot replay gave no error", s.Alg, p, r, kind)
					}
					if _, err := edgeSimulate(mut, libs[0]); err == nil {
						t.Fatalf("%s on %d procs: rank %d lost a step of kind %d, edge replay gave no error", s.Alg, p, r, kind)
					}
				}
			}
		}
	}
	if compared != 3498 {
		t.Errorf("compared %d schedules, want 3498", compared)
	}
}

// replayFromClocks replays s from random entry clocks, up to 10 µs apart,
// and fails unless Replay and the edge replay agree on every exit clock
// and on the arrival in every receive slot.
func replayFromClocks(t *testing.T, s *Schedule, lib *machine.Lib, rng *rand.Rand) {
	t.Helper()
	p := len(s.Steps)
	entry := make([]vtime.Time, p)
	for r := range entry {
		entry[r] = vtime.Time(rng.Int64N(10_000))
	}
	got, want := slices.Clone(entry), slices.Clone(entry)
	avail := make([]vtime.Time, s.Slots())
	if err := s.Replay(lib, got, avail, make([]int32, p)); err != nil {
		t.Fatalf("%s on %d procs (%s) from random clocks: %v", s.Alg, p, lib.Name, err)
	}
	arrivals, err := edgeReplay(s.Steps, lib, want)
	if err != nil {
		t.Fatalf("%s on %d procs (%s) from random clocks: reference: %v", s.Alg, p, lib.Name, err)
	}
	for r := range p {
		if got[r] != want[r] {
			t.Fatalf("%s on %d procs (%s): rank %d entered at %v and leaves at %v, edge replay %v",
				s.Alg, p, lib.Name, r, entry[r], got[r], want[r])
		}
		for i, st := range s.Steps[r] {
			if st.Kind == Recv && avail[s.Slot(r, i)] != arrivals[r][i] {
				t.Fatalf("%s on %d procs (%s): rank %d's step %d arrives at %v, edge replay %v",
					s.Alg, p, lib.Name, r, i, avail[s.Slot(r, i)], arrivals[r][i])
			}
		}
	}
}

// TestPairRejectsOrphans: a send no receive takes and a receive no send
// fills are pairing errors that name the step; an intact schedule pairs
// every send with its peer's receive slot from it.
func TestPairRejectsOrphans(t *testing.T) {
	steps := [][]Step{
		{{Kind: Send, Peer: 1, Count: 1}, {Kind: Recv, Peer: 1, Count: 1}},
		{{Kind: Recv, Peer: 0, Count: 1}, {Kind: Send, Peer: 0, Count: 1}},
	}
	s, err := pair(steps)
	if err != nil {
		t.Fatalf("intact exchange: %v", err)
	}
	if s.To[0][0] != 0 || s.To[1][1] != 0 || s.Slot(0, 0) != 1 || s.Slot(1, 1) != 0 || s.Slots() != 2 {
		t.Fatalf("intact exchange paired as %v", s.To)
	}
	for _, c := range []struct {
		name  string
		steps [][]Step
		want  string
	}{
		{"orphan send", [][]Step{{{Kind: Send, Peer: 1, Count: 1}}, nil},
			"rank 0's step 0 sends to rank 1, which never receives from it"},
		{"orphan receive", [][]Step{nil, {{Kind: Recv, Peer: 0, Count: 1}}},
			"rank 1's step 0 receives from rank 0, which never sends to it"},
		{"second send on an edge", [][]Step{{{Kind: Send, Peer: 1, Count: 1}, {Kind: Send, Peer: 1, Count: 1}}, {{Kind: Recv, Peer: 0, Count: 1}}},
			"rank 0's step 1 sends to rank 1, which never receives from it"},
	} {
		if _, err := pair(c.steps); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// BenchmarkSelect times choosing the allreduce at three partition sizes:
// every eligible schedule built, paired and replayed once.
func BenchmarkSelect(b *testing.B) {
	lib := allLibs(b)[0]
	for _, p := range []int{64, 1024, 4096} {
		mesh, err := grid.MeshFor(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("procs=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				Select(lib, mesh)
			}
		})
	}
}
