// Package critpath records and analyzes the happens-before DAG of one
// simulated run in virtual time. A Log holds one processor's segments, one
// per clock advance — compute charges, communication software overhead,
// and blocking waits — and tags every wait whose end was caused by another
// processor's message with a cross-processor edge: the sending rank and
// the sender's clock value at the moment the message left. The runtime's
// virtual clock only ever moves by charges and waits, so the segments of
// one processor tile its timeline exactly: they are contiguous from time
// zero and their durations sum to the processor's finish time. The
// analyzer (analyze.go) walks the DAG backward from the latest finisher
// and extracts the critical path — the chain of segments and message edges
// that bounds the run's simulated execution time — attributing every
// nanosecond of it to a specific statement, transfer callsite or
// collective hop.
//
// The runtime folds its per-processor event logs (internal/rt/observe.go)
// into Logs through Context, Compute, Comm and Wait. A Log names each
// context once, so a segment is 40 bytes however long its labels are.
package critpath

import (
	"fmt"

	"commopt/internal/vtime"
)

// Kind classifies one segment by the clock funnel that produced it.
type Kind uint8

// Segment kinds: the three ways a virtual clock advances.
const (
	Compute Kind = iota // statement execution and control overhead
	Comm                // communication software overhead (the paper's "exposed" cost)
	Wait                // blocked on data, a rendezvous token or a reduction
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Comm:
		return "comm"
	case Wait:
		return "wait"
	}
	return "?"
}

// Reason says which event a Wait segment blocked on. The runtime's
// scheduler parks processors for the same reasons (internal/rt/sched.go),
// so a critical-path report and a deadlock report speak the same
// vocabulary.
type Reason uint8

// Wait reasons.
const (
	None   Reason = iota
	Data          // message payload from a neighbor
	Ready         // rendezvous ready token (destination-ready protocol)
	Reduce        // collective hop message
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case Data:
		return "data"
	case Ready:
		return "ready token"
	case Reduce:
		return "reduction"
	}
	return "nothing"
}

// NoSender marks a wait segment with no cross-processor edge.
const NoSender = int32(-1)

// Seg is one clock advance on one processor: the half-open virtual-time
// interval (Start, Start+Dur] charged to one attribution context. Wait
// segments additionally carry the happens-before edge that ended them:
// From is the sending rank and SendT the sender's clock when the message
// departed (the wait's end minus SendT is wire latency plus any time the
// message spent queued before this processor consumed it). The context's
// label and site are the Log's (Log.Context names them once, not per
// segment).
type Seg struct {
	Start  vtime.Time
	Dur    vtime.Duration
	SendT  vtime.Time
	From   int32 // sending rank of the edge; NoSender when local
	Kind   Kind
	Reason Reason // None unless Kind == Wait
	ctx    int32  // the Log's context id
}

// End returns the segment's end time.
func (s Seg) End() vtime.Time { return s.Start.Add(s.Dur) }

// context is one attribution context: a label and its source position.
type context struct{ label, site string }

// Log is one processor's segment sequence, appended in program order (and
// therefore in nondecreasing virtual time). The current attribution
// context — set around statements, IRONMAN calls and collective hops —
// labels every segment recorded while it is in force.
type Log struct {
	segs []Seg
	ctxs []context         // by context id; ctxs[0] is the empty context
	ids  map[context]int32 // context ids
	cur  int32
}

// Context sets the attribution context of the segments recorded next:
// the statement, IRONMAN call or collective hop and its source position.
func (l *Log) Context(label, site string) {
	c := context{label, site}
	if l.ids == nil {
		l.ctxs, l.ids = []context{{}}, map[context]int32{{}: 0}
	}
	id, ok := l.ids[c]
	if !ok {
		id = int32(len(l.ctxs))
		l.ctxs = append(l.ctxs, c)
		l.ids[c] = id
	}
	l.cur = id
}

// Compute records a compute-side clock advance of d starting at start.
// Contiguous same-context compute segments merge, so a loop body's many
// small charges cost one log entry, not thousands.
func (l *Log) Compute(start vtime.Time, d vtime.Duration) { l.local(Compute, start, d) }

// Comm records a communication-overhead clock advance.
func (l *Log) Comm(start vtime.Time, d vtime.Duration) { l.local(Comm, start, d) }

func (l *Log) local(k Kind, start vtime.Time, d vtime.Duration) {
	if d <= 0 {
		return
	}
	if n := len(l.segs); n > 0 {
		last := &l.segs[n-1]
		if last.Kind == k && last.Reason == None && last.End() == start && last.ctx == l.cur {
			last.Dur += d
			return
		}
	}
	l.segs = append(l.segs, Seg{Start: start, Dur: d, Kind: k, From: NoSender, ctx: l.cur})
}

// Wait records a blocking interval ended by a message from rank `from`
// that departed the sender at sendT. Wait segments never merge: each
// carries its own happens-before edge, and merging would lose it.
func (l *Log) Wait(start vtime.Time, d vtime.Duration, reason Reason, from int, sendT vtime.Time) {
	if d <= 0 {
		return
	}
	l.segs = append(l.segs, Seg{
		Start: start, Dur: d, Kind: Wait, Reason: reason,
		From: int32(from), SendT: sendT, ctx: l.cur,
	})
}

// Segs returns the recorded segments in order.
func (l *Log) Segs() []Seg { return l.segs }

// End returns the log's final clock value (zero when empty).
func (l *Log) End() vtime.Time {
	if len(l.segs) == 0 {
		return 0
	}
	return l.segs[len(l.segs)-1].End()
}

// check verifies the tiling invariant: segments contiguous from time
// zero, every duration positive. rank names the log in errors.
func (l *Log) check(rank int) error {
	at := vtime.Time(0)
	for i, s := range l.segs {
		if s.Dur <= 0 {
			return fmt.Errorf("critpath: proc %d segment %d has non-positive duration %v", rank, i, s.Dur)
		}
		if s.Start != at {
			return fmt.Errorf("critpath: proc %d segment %d starts at %v, expected %v (gap or overlap)", rank, i, s.Start, at)
		}
		at = s.End()
	}
	return nil
}

// Recorder owns the per-processor logs of one recorded run. Create one
// and pass it to the runtime via rt.Config.Critpath; the runtime calls
// Init with the processor count.
type Recorder struct {
	logs []*Log
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Init sizes the recorder for the given processor count, discarding any
// previous recording.
func (r *Recorder) Init(procs int) {
	r.logs = make([]*Log, procs)
	for i := range r.logs {
		r.logs[i] = &Log{ctxs: []context{{}}}
	}
}

// Procs returns the processor count the recorder was initialized for.
func (r *Recorder) Procs() int { return len(r.logs) }

// Log returns the log of one processor rank.
func (r *Recorder) Log(rank int) *Log { return r.logs[rank] }
