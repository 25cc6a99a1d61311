package rt

import (
	"testing"

	"commopt/internal/comm"
	"commopt/internal/critpath"
	"commopt/internal/trace"
	"commopt/internal/vtime"
)

// Conservation by construction: the virtual clock only moves through
// charge, chargeComm and waitUntil, and the critpath recorder hooks all
// three, so each processor's segment log must tile its timeline exactly
// — per-kind sums equal to the breakdown categories and the analyzer's
// path summing exactly to the run's finish time — under every optimizer
// configuration and both libraries.
func TestCritpathConservation(t *testing.T) {
	cases := []struct {
		name string
		opts comm.Options
		lib  string
	}{
		{"baseline pvm", comm.Baseline(), "pvm"},
		{"rr pvm", comm.RR(), "pvm"},
		{"cc pvm", comm.CC(), "pvm"},
		{"pl pvm", comm.PL(), "pvm"},
		{"baseline shmem", comm.Baseline(), "shmem"},
		{"rr shmem", comm.RR(), "shmem"},
		{"cc shmem", comm.CC(), "shmem"},
		{"pl shmem", comm.PL(), "shmem"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := critpath.NewRecorder()
			res := runSrc(t, laplaceSrc, c.opts, Config{Library: c.lib, Critpath: rec})

			// Per-processor tiling: each log ends at its processor's
			// finish time, and the per-kind sums equal the breakdown.
			for rank := 0; rank < rec.Procs(); rank++ {
				bd := res.PerProc[rank]
				log := rec.Log(rank)
				if got := vtime.Duration(log.End()); got != bd.Finish {
					t.Errorf("rank %d log ends at %v, finish is %v", rank, got, bd.Finish)
				}
				var comp, commT, wait vtime.Duration
				for _, s := range log.Segs() {
					switch s.Kind {
					case critpath.Compute:
						comp += s.Dur
					case critpath.Comm:
						commT += s.Dur
					case critpath.Wait:
						wait += s.Dur
					}
				}
				if comp != bd.Compute || commT != bd.Comm || wait != bd.Wait {
					t.Errorf("rank %d segment sums %v/%v/%v != breakdown %v/%v/%v",
						rank, comp, commT, wait, bd.Compute, bd.Comm, bd.Wait)
				}
			}

			p, err := critpath.Analyze(rec)
			if err != nil {
				t.Fatal(err)
			}
			if p.Finish != res.ExecTime {
				t.Errorf("path finish %v != ExecTime %v", p.Finish, res.ExecTime)
			}
			if p.Compute+p.Comm+p.Wait != res.ExecTime {
				t.Errorf("path splits %v+%v+%v != ExecTime %v", p.Compute, p.Comm, p.Wait, res.ExecTime)
			}
			var sum vtime.Duration
			for _, c := range p.Contributions() {
				sum += c.Dur
			}
			if sum != res.ExecTime {
				t.Errorf("contributions sum %v != ExecTime %v", sum, res.ExecTime)
			}
		})
	}
}

// The recorded DAG is a function of the simulation, not of host
// scheduling: the default worker pool and the one-worker run, which steps
// processors one at a time, must produce piece-identical critical paths.
func TestCritpathSchedulerOracleIdentical(t *testing.T) {
	path := func(workers int) *critpath.Path {
		rec := critpath.NewRecorder()
		runSrc(t, laplaceSrc, comm.PL(), Config{Critpath: rec, SchedWorkers: workers})
		p, err := critpath.Analyze(rec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pool, one := path(0), path(1)
	if pool.Finish != one.Finish || pool.CritRank != one.CritRank {
		t.Fatalf("pool path (finish %v, rank %d) != one-worker path (finish %v, rank %d)",
			pool.Finish, pool.CritRank, one.Finish, one.CritRank)
	}
	if len(pool.Segs) != len(one.Segs) {
		t.Fatalf("pool path has %d pieces, one-worker %d", len(pool.Segs), len(one.Segs))
	}
	for i := range pool.Segs {
		if pool.Segs[i] != one.Segs[i] {
			t.Errorf("piece %d: pool %+v != one-worker %+v", i, pool.Segs[i], one.Segs[i])
		}
	}
}

// Recording the critical path must not perturb the simulation.
func TestCritpathDoesNotChangeResults(t *testing.T) {
	plain := runSrc(t, laplaceSrc, comm.PL(), Config{})
	rec := critpath.NewRecorder()
	observed := runSrc(t, laplaceSrc, comm.PL(), Config{Critpath: rec})
	if plain.ExecTime != observed.ExecTime {
		t.Errorf("ExecTime %d != %d", plain.ExecTime, observed.ExecTime)
	}
	if plain.Messages != observed.Messages || plain.BytesSent != observed.BytesSent {
		t.Errorf("traffic (%d msgs, %d B) != (%d msgs, %d B)",
			plain.Messages, plain.BytesSent, observed.Messages, observed.BytesSent)
	}
	if plain.Output != observed.Output {
		t.Errorf("output %q != %q", plain.Output, observed.Output)
	}
}

// The path's attribution contexts are populated: statements label
// compute pieces, callsites label communication, and the reduction
// appears when the path crosses a collective hop.
func TestCritpathAttribution(t *testing.T) {
	rec := critpath.NewRecorder()
	runSrc(t, laplaceSrc, comm.Baseline(), Config{})
	runSrc(t, laplaceSrc, comm.Baseline(), Config{Critpath: rec})
	p, err := critpath.Analyze(rec)
	if err != nil {
		t.Fatal(err)
	}
	labeled := 0
	for _, c := range p.Contributions() {
		if c.Label != "" {
			labeled++
		}
	}
	if labeled == 0 {
		t.Error("no contribution carries an attribution label")
	}
}

// Scheduler observability: Result.Sched reports the worker pool, step
// counts and high-water marks, and surfaces as sched_* metrics when
// metrics are on.
func TestSchedStats(t *testing.T) {
	res := runSrc(t, laplaceSrc, comm.PL(), Config{Metrics: true})
	st := res.Sched
	if st == nil {
		t.Fatal("Result.Sched nil")
	}
	if st.Workers < 1 || len(st.Steps) != st.Workers {
		t.Errorf("workers %d with %d step slots", st.Workers, len(st.Steps))
	}
	if st.TotalSteps() < int64(len(res.PerProc)) {
		t.Errorf("total steps %d < processor count %d", st.TotalSteps(), len(res.PerProc))
	}
	if st.RunqHiWater < len(res.PerProc) {
		t.Errorf("runq high water %d < initial fill %d", st.RunqHiWater, len(res.PerProc))
	}
	if st.Parks[0] != 0 {
		t.Errorf("parks recorded for waitNone: %d", st.Parks[0])
	}
	if st.ParksAverted > st.TotalParks() {
		t.Errorf("%d parks averted of %d requested", st.ParksAverted, st.TotalParks())
	}
	if got := res.Metrics.Counter("sched_parks_averted").N; got != st.ParksAverted {
		t.Errorf("sched_parks_averted counter %d != ParksAverted %d", got, st.ParksAverted)
	}
	if got := res.Metrics.Counter("sched_steps").N; got != st.TotalSteps() {
		t.Errorf("sched_steps counter %d != TotalSteps %d", got, st.TotalSteps())
	}
	if got := res.Metrics.Gauge("sched_runq_hiwater").V; got != int64(st.RunqHiWater) {
		t.Errorf("sched_runq_hiwater gauge %d != %d", got, st.RunqHiWater)
	}
}

// Send and receive events carry the transfer tag in A2, so the Chrome
// renderer can pair them into flow arrows; reduce hops carry the peer.
func TestTraceEventsCarryA2(t *testing.T) {
	rec := trace.NewRecorder()
	runSrc(t, laplaceSrc, comm.PL(), Config{Trace: rec})
	sends, reduceHops := 0, 0
	for rank := 0; rank < rec.Procs(); rank++ {
		for _, e := range rec.Buffer(rank).Events() {
			switch e.Kind {
			case trace.KindSend, trace.KindRecv:
				sends++
			case trace.KindReduce:
				if e.A0 >= 0 {
					reduceHops++
					if e.A2 < 0 || e.A2 == int64(rank) {
						t.Errorf("rank %d reduce hop names peer %d", rank, e.A2)
					}
				}
			}
		}
	}
	if sends == 0 || reduceHops == 0 {
		t.Fatalf("trace has %d p2p events and %d reduce hops; want both > 0", sends, reduceHops)
	}
}
