package critpath

import (
	"testing"
	"unsafe"

	"commopt/internal/vtime"
)

func TestLogMergesContiguousSameContext(t *testing.T) {
	l := &Log{}
	l.Context("loop", "")
	l.Compute(0, 10)
	l.Compute(10, 5)
	if len(l.Segs()) != 1 || l.Segs()[0].Dur != 15 {
		t.Fatalf("contiguous same-context compute did not merge: %+v", l.Segs())
	}
	l.Context("stmt A", "3:1")
	l.Compute(15, 5)
	if len(l.Segs()) != 2 {
		t.Fatalf("context change must break the merge: %+v", l.Segs())
	}
	l.Comm(20, 5)
	if len(l.Segs()) != 3 {
		t.Fatalf("kind change must break the merge: %+v", l.Segs())
	}
	l.Wait(25, 5, Data, 1, 20)
	l.Wait(30, 5, Data, 1, 28)
	if len(l.Segs()) != 5 {
		t.Fatalf("wait segments must never merge: %+v", l.Segs())
	}
	if err := l.check(0); err != nil {
		t.Fatalf("tiling check failed on a contiguous log: %v", err)
	}
	if l.End() != 35 {
		t.Fatalf("End = %v, want 35", l.End())
	}
}

func TestLogZeroDurationSkipped(t *testing.T) {
	l := &Log{}
	l.Compute(0, 0)
	l.Comm(0, 0)
	l.Wait(0, 0, Data, 1, 0)
	if len(l.Segs()) != 0 {
		t.Fatalf("zero-duration segments must not be recorded: %+v", l.Segs())
	}
}

func TestCheckRejectsGapsAndOverlaps(t *testing.T) {
	l := &Log{}
	l.Compute(0, 10)
	l.Context("later", "")
	l.Compute(15, 5) // gap (10, 15)
	if err := l.check(0); err == nil {
		t.Fatalf("tiling check accepted a log with a gap")
	}
}

// Two processors, one data edge: the path must cross to the sender at the
// message's departure time and report the wire tail as wait.
func TestAnalyzeCrossesDataEdge(t *testing.T) {
	r := NewRecorder()
	r.Init(2)

	p0 := r.Log(0)
	p0.Context("A := ...", "")
	p0.Compute(0, 50)
	p0.Context("DN A", "2:3")
	p0.Wait(50, 60, Data, 1, 90) // message departed proc 1 at t=90
	p0.Context("B := ...", "")
	p0.Compute(110, 10) // finish 120

	p1 := r.Log(1)
	p1.Context("A := ...", "")
	p1.Compute(0, 80)
	p1.Context("SR A", "2:3")
	p1.Comm(80, 10) // send departs at 90
	p1.Context("tail", "")
	p1.Compute(90, 5) // finish 95

	p, err := Analyze(r)
	if err != nil {
		t.Fatal(err)
	}
	if p.CritRank != 0 || p.Finish != 120 {
		t.Fatalf("crit rank %d finish %v, want rank 0 finish 120", p.CritRank, p.Finish)
	}
	if p.Compute != 90 || p.Comm != 10 || p.Wait != 20 {
		t.Fatalf("split compute %v comm %v wait %v, want 90/10/20", p.Compute, p.Comm, p.Wait)
	}
	if p.Hops != 1 || p.Procs != 2 {
		t.Fatalf("hops %d procs %d, want 1 and 2", p.Hops, p.Procs)
	}
	want := []PathSeg{
		{Rank: 1, Start: 0, Dur: 80, Kind: Compute, From: -1, Label: "A := ..."},
		{Rank: 1, Start: 80, Dur: 10, Kind: Comm, From: -1, Label: "SR A", Site: "2:3"},
		{Rank: 0, Start: 90, Dur: 20, Kind: Wait, Reason: Data, From: 1, Label: "DN A", Site: "2:3"},
		{Rank: 0, Start: 110, Dur: 10, Kind: Compute, From: -1, Label: "B := ..."},
	}
	if len(p.Segs) != len(want) {
		t.Fatalf("path has %d pieces, want %d: %+v", len(p.Segs), len(want), p.Segs)
	}
	for i, w := range want {
		if p.Segs[i] != w {
			t.Errorf("piece %d = %+v, want %+v", i, p.Segs[i], w)
		}
	}
}

// Rendezvous edge: the wait ends exactly at the token's departure time,
// so the whole blocked interval is off-path and the walk crosses at
// constant time.
func TestAnalyzeRendezvousEdge(t *testing.T) {
	r := NewRecorder()
	r.Init(2)

	p0 := r.Log(0)
	p0.Compute(0, 40)
	p0.Context("SR wait", "")
	p0.Wait(40, 10, Ready, 1, 50) // token departed at exactly t=50

	p1 := r.Log(1)
	p1.Compute(0, 30)
	p1.Context("DR", "")
	p1.Comm(30, 20) // token departs at 50

	p, err := Analyze(r)
	if err != nil {
		t.Fatal(err)
	}
	if p.CritRank != 0 || p.Finish != 50 {
		t.Fatalf("crit rank %d finish %v, want rank 0 (tie broken low) finish 50", p.CritRank, p.Finish)
	}
	if p.Wait != 0 || p.Hops != 1 {
		t.Fatalf("wait %v hops %d, want 0 wait (token departure == wait end) and 1 hop", p.Wait, p.Hops)
	}
	if p.Compute != 30 || p.Comm != 20 {
		t.Fatalf("compute %v comm %v, want 30/20", p.Compute, p.Comm)
	}
}

// A message sent before the receiver even started waiting: the whole wait
// is wire/queueing tail and stays on the receiver.
func TestAnalyzeWireDominatedWait(t *testing.T) {
	r := NewRecorder()
	r.Init(2)

	p0 := r.Log(0)
	p0.Compute(0, 60)
	p0.Wait(60, 20, Data, 1, 40) // departed at 40, before the wait began

	p1 := r.Log(1)
	p1.Compute(0, 30)
	p1.Comm(30, 10) // send departs at 40

	p, err := Analyze(r)
	if err != nil {
		t.Fatal(err)
	}
	if p.Finish != 80 || p.Wait != 40 || p.Hops != 1 {
		t.Fatalf("finish %v wait %v hops %d, want 80/40/1", p.Finish, p.Wait, p.Hops)
	}
	// Path: proc1 compute 30 + comm 10, then the in-flight interval
	// (40,80] on proc0 — the message departed at 40 and bound the finish.
	if p.Segs[len(p.Segs)-1].Dur != 40 || p.Segs[len(p.Segs)-1].Start != 40 {
		t.Fatalf("final wait piece %+v, want the in-flight (40,80] interval", p.Segs[len(p.Segs)-1])
	}
}

func TestAnalyzeRejectsFutureEdge(t *testing.T) {
	r := NewRecorder()
	r.Init(2)
	r.Log(0).Wait(0, 30, Data, 1, 35) // "unblocked" by a message sent at 35 > 30
	r.Log(1).Compute(0, 20)
	if _, err := Analyze(r); err == nil {
		t.Fatalf("analyzer accepted a causality-violating edge")
	}
}

func TestContributionsAndChains(t *testing.T) {
	r := NewRecorder()
	r.Init(2)
	p0 := r.Log(0)
	p0.Context("hot stmt", "5:1")
	p0.Compute(0, 50)
	p0.Context("DN U", "7:2")
	p0.Wait(50, 50, Data, 1, 60)
	p1 := r.Log(1)
	p1.Context("hot stmt", "5:1")
	p1.Compute(0, 55)
	p1.Context("SR U", "7:2")
	p1.Comm(55, 5)

	p, err := Analyze(r)
	if err != nil {
		t.Fatal(err)
	}
	cs := p.Contributions()
	var sum vtime.Duration
	for _, c := range cs {
		sum += c.Dur
	}
	if sum != p.Finish {
		t.Fatalf("contributions sum %v != finish %v", sum, p.Finish)
	}
	if cs[0].Label != "hot stmt" || cs[0].Dur != 55 {
		t.Fatalf("top contributor %+v, want hot stmt with 55", cs[0])
	}
	chains := p.Chains()
	if len(chains) != 2 || chains[0].Rank != 1 || chains[1].Rank != 0 {
		t.Fatalf("chains %+v, want proc 1 then proc 0", chains)
	}
	top := p.TopChains(1)
	if len(top) != 1 || top[0].Rank != 1 {
		t.Fatalf("top chain %+v, want the 60ns proc-1 run", top)
	}
}

func TestAnalyzeEmptyRun(t *testing.T) {
	r := NewRecorder()
	r.Init(4)
	p, err := Analyze(r)
	if err != nil {
		t.Fatal(err)
	}
	if p.Finish != 0 || len(p.Segs) != 0 {
		t.Fatalf("empty run produced path %+v", p)
	}
}

// A run keeps every processor's segments until Analyze, so a segment
// names its context by id and stays within 40 bytes.
func TestSegSize(t *testing.T) {
	if n := unsafe.Sizeof(Seg{}); n > 40 {
		t.Errorf("a segment is %d bytes, want at most 40", n)
	}
}
