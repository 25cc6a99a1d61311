// Package trace records virtual-time-stamped events from the SPMD
// runtime: IRONMAN calls, point-to-point message sends and receives,
// statement executions, reduction phases and blocking-wait intervals.
// Each virtual processor writes into its own fixed-capacity ring buffer,
// so recording never synchronizes between processors and never grows
// without bound; because the clock is virtual, a recorded trace is
// byte-for-byte reproducible across hosts and runs.
//
// The runtime holds a nil *Buffer when tracing is disabled, so the
// disabled fast path is a single pointer check (benchmarked in
// internal/rt/trace_bench_test.go). A finished recording renders as
// Chrome trace-event JSON (chrome.go) loadable in Perfetto or
// chrome://tracing, with virtual time as the clock and one timeline row
// per virtual processor.
package trace

import "commopt/internal/vtime"

// Kind classifies one recorded event.
type Kind uint8

// Event kinds.
const (
	KindCall   Kind = iota // IRONMAN call: A0 = call kind (0=DR 1=SR 2=DN 3=SV), A1 = payload bytes sent during the call
	KindSend               // point-to-point message enqueued: A0 = destination rank, A1 = bytes, A2 = transfer tag
	KindRecv               // point-to-point message consumed: A0 = source rank, A1 = bytes, A2 = transfer tag
	KindStmt               // statement execution: A0 = engine (0=scalar 1=kernel 2=interp)
	KindWait               // blocking-wait interval (data, rendezvous token or reduction)
	KindReduce             // global reduction phase (A0 = -1), or one hop of it: A0 = round, A1 = bytes, A2 = peer rank
)

// String names the kind (the Chrome event category).
func (k Kind) String() string {
	switch k {
	case KindCall:
		return "ironman"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindStmt:
		return "stmt"
	case KindWait:
		return "wait"
	case KindReduce:
		return "reduce"
	}
	return "?"
}

// Statement engine codes carried in a KindStmt event's A0.
const (
	EngineScalar int64 = iota
	EngineKernel
	EngineInterp
)

// Event is one virtual-time-stamped occurrence on one processor. Start
// and Dur are in virtual nanoseconds; A0/A1/A2 carry kind-specific
// integer arguments (see the Kind constants).
type Event struct {
	Kind       Kind
	Start      vtime.Time
	Dur        vtime.Duration
	Name       string
	A0, A1, A2 int64
}

// DefaultCap is the per-processor ring capacity used when Recorder.Cap
// is zero.
const DefaultCap = 1 << 16

// Buffer is one processor's event ring. When full, the oldest events are
// overwritten (the tail of a run matters more than its prologue) and
// Dropped counts what was lost.
type Buffer struct {
	cap     int
	ev      []Event
	head    int // index of the oldest event once the ring has wrapped
	dropped int
}

func newBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Buffer{cap: capacity}
}

// Add records one event, evicting the oldest when the ring is full.
func (b *Buffer) Add(e Event) {
	if len(b.ev) < b.cap {
		b.ev = append(b.ev, e)
		return
	}
	b.ev[b.head] = e
	b.head = (b.head + 1) % b.cap
	b.dropped++
}

// Len returns the number of retained events.
func (b *Buffer) Len() int { return len(b.ev) }

// Dropped returns how many events were evicted by ring wraparound.
func (b *Buffer) Dropped() int { return b.dropped }

// Events returns the retained events in record order.
func (b *Buffer) Events() []Event {
	if b.head == 0 {
		return b.ev
	}
	out := make([]Event, 0, len(b.ev))
	out = append(out, b.ev[b.head:]...)
	out = append(out, b.ev[:b.head]...)
	return out
}

// Recorder owns the per-processor buffers of one traced run. Create one,
// set Cap if the default ring size is wrong, and pass it to the runtime
// via rt.Config.Trace; the runtime calls Init with the processor count.
type Recorder struct {
	Cap    int // per-processor ring capacity; DefaultCap when zero
	bufs   []*Buffer
	labels []string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Init sizes the recorder for the given processor count, discarding any
// previous recording.
func (r *Recorder) Init(procs int) {
	r.bufs = make([]*Buffer, procs)
	r.labels = make([]string, procs)
	for i := range r.bufs {
		r.bufs[i] = newBuffer(r.Cap)
	}
}

// Procs returns the processor count the recorder was initialized for.
func (r *Recorder) Procs() int { return len(r.bufs) }

// Buffer returns the ring of one processor rank.
func (r *Recorder) Buffer(rank int) *Buffer { return r.bufs[rank] }

// SetProcLabel names one processor's timeline row (e.g. "proc 3 (1,0)").
func (r *Recorder) SetProcLabel(rank int, label string) { r.labels[rank] = label }

// ProcLabel returns the row label of one rank (empty if unset).
func (r *Recorder) ProcLabel(rank int) string { return r.labels[rank] }

// Dropped returns the total events lost to ring wraparound across all
// processors.
func (r *Recorder) Dropped() int {
	n := 0
	for _, b := range r.bufs {
		n += b.dropped
	}
	return n
}
