package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is the stable wire form of one Chrome trace event. Field
// order is the emission order (encoding/json preserves struct order), so
// output is deterministic and diffable.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds of virtual time
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	ID    int            `json:"id,omitempty"` // flow binding; ids start at 1
	BP    string         `json:"bp,omitempty"` // "e": bind flow end to the enclosing slice
	Args  map[string]any `json:"args,omitempty"`
}

// flowKey identifies one ordered message stream: every send and receive
// of one transfer tag between one directed processor pair. Within a
// stream, messages are consumed in the order they were sent (the mailbox
// FIFO preserves per-tag order), so the k-th retained send pairs with
// the k-th retained receive.
type flowKey struct {
	src, dst, tag int64
}

// flowRef marks one sorted event as an endpoint of flow `id`.
type flowRef struct {
	id     int
	finish bool
}

// matchFlows pairs every retained send with its retained receive and
// assigns deterministic sequential flow ids. The ring buffers evict the
// oldest events first, so each stream's retained sends and receives are
// suffixes of the full stream and matching aligns them from the tail;
// the unmatched prefix (whose partners were evicted) gets no flow. The
// result maps (rank, sorted-event index) to the endpoint's flow id.
func matchFlows(sorted [][]Event) map[[2]int]flowRef {
	sends := map[flowKey][][2]int{}
	recvs := map[flowKey][][2]int{}
	keys := []flowKey{}
	for rank, events := range sorted {
		for i, e := range events {
			switch e.Kind {
			case KindSend:
				k := flowKey{src: int64(rank), dst: e.A0, tag: e.A2}
				if len(sends[k]) == 0 {
					keys = append(keys, k)
				}
				sends[k] = append(sends[k], [2]int{rank, i})
			case KindRecv:
				k := flowKey{src: e.A0, dst: int64(rank), tag: e.A2}
				recvs[k] = append(recvs[k], [2]int{rank, i})
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.tag < b.tag
	})
	out := map[[2]int]flowRef{}
	id := 0
	for _, k := range keys {
		s, r := sends[k], recvs[k]
		n := len(s)
		if len(r) < n {
			n = len(r)
		}
		s, r = s[len(s)-n:], r[len(r)-n:]
		for j := 0; j < n; j++ {
			id++
			out[s[j]] = flowRef{id: id}
			out[r[j]] = flowRef{id: id, finish: true}
		}
	}
	return out
}

// callKindNames maps a KindCall event's A0 to the IRONMAN call name; it
// mirrors comm.CallKind order without importing the package.
var callKindNames = [...]string{"DR", "SR", "DN", "SV"}

// WriteChrome renders a finished recording as Chrome trace-event JSON
// (the object form, loadable in Perfetto and chrome://tracing): one
// timeline row per virtual processor (tid = rank), spans for IRONMAN
// calls, statements, waits and reductions, thread-scoped instant events
// for message sends and receives, and one flow (ph "s" at the send, "f"
// at the receive) per matched message pair so the viewer draws the
// arrow that carried the dependency. Timestamps are virtual-time
// microseconds, so identical runs produce identical files.
func WriteChrome(w io.Writer, r *Recorder) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(e chromeEvent) error {
		sep := ",\n"
		if first {
			sep = ""
			first = false
		}
		data, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, sep); err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	}

	if err := emit(chromeEvent{Name: "process_name", Ph: "M", Args: map[string]any{"name": "zpl simulated machine"}}); err != nil {
		return err
	}
	for rank := 0; rank < r.Procs(); rank++ {
		label := r.ProcLabel(rank)
		if label == "" {
			label = fmt.Sprintf("proc %d", rank)
		}
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Tid: rank, Args: map[string]any{"name": label}}); err != nil {
			return err
		}
	}

	sorted := make([][]Event, r.Procs())
	for rank := 0; rank < r.Procs(); rank++ {
		events := append([]Event(nil), r.Buffer(rank).Events()...)
		// Spans recorded at completion can start before an inner span
		// already recorded (a reduction wraps its wait). Chrome wants
		// non-decreasing timestamps with parents before children, so sort
		// by start time, longest span first on ties.
		sort.SliceStable(events, func(i, j int) bool {
			if events[i].Start != events[j].Start {
				return events[i].Start < events[j].Start
			}
			return events[i].Dur > events[j].Dur
		})
		sorted[rank] = events
	}
	flows := matchFlows(sorted)

	for rank := 0; rank < r.Procs(); rank++ {
		for i, e := range sorted[rank] {
			ce := chromeEvent{
				Name: e.Name,
				Cat:  e.Kind.String(),
				Ts:   float64(e.Start) / 1000,
				Tid:  rank,
			}
			switch e.Kind {
			case KindSend:
				ce.Ph, ce.Scope = "i", "t"
				ce.Args = map[string]any{"to": e.A0, "bytes": e.A1}
			case KindRecv:
				ce.Ph, ce.Scope = "i", "t"
				ce.Args = map[string]any{"from": e.A0, "bytes": e.A1}
			case KindCall:
				ce.Ph = "X"
				ce.Dur = float64(e.Dur) / 1000
				call := "?"
				if e.A0 >= 0 && int(e.A0) < len(callKindNames) {
					call = callKindNames[e.A0]
				}
				ce.Args = map[string]any{"call": call, "bytes": e.A1}
			case KindStmt:
				ce.Ph = "X"
				ce.Dur = float64(e.Dur) / 1000
				engine := "scalar"
				if e.A0 == EngineKernel {
					engine = "kernel"
				}
				ce.Args = map[string]any{"engine": engine}
			case KindReduce:
				ce.Ph = "X"
				ce.Dur = float64(e.Dur) / 1000
				// Per-hop spans carry their algorithm level, payload and
				// peer; the whole-reduction span (A0 < 0) has no per-hop
				// detail.
				if e.A0 >= 0 {
					ce.Args = map[string]any{"level": e.A0, "bytes": e.A1, "peer": e.A2}
				}
			default:
				ce.Ph = "X"
				ce.Dur = float64(e.Dur) / 1000
			}
			if err := emit(ce); err != nil {
				return err
			}
			if f, ok := flows[[2]int{rank, i}]; ok {
				fe := chromeEvent{Name: "msg", Cat: "flow", Ts: ce.Ts, Tid: rank, ID: f.id}
				if f.finish {
					fe.Ph, fe.BP = "f", "e"
				} else {
					fe.Ph = "s"
				}
				if err := emit(fe); err != nil {
					return err
				}
			}
		}
	}
	_, err := fmt.Fprintf(w, "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"virtual\",\"droppedEvents\":%d}}\n", r.Dropped())
	return err
}
