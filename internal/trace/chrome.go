package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"unicode/utf8"
)

// chromeEvent is the stable wire form of one Chrome trace event.
// appendJSON writes its fields in this order, each under the key named
// beside it, an empty optional one (cat, dur, s, id, bp, args) left out
// and the arguments in sorted key order: byte for byte what encoding/json
// makes of such a struct with its arguments in a map. So output is
// deterministic and diffable, and writing it allocates nothing per event.
type chromeEvent struct {
	Name  string       // name
	Cat   string       // cat
	Ph    string       // ph
	Ts    float64      // ts: microseconds of virtual time
	Dur   float64      // dur
	Pid   int          // pid
	Tid   int          // tid
	Scope string       // s
	ID    int          // id: flow binding; ids start at 1
	BP    string       // bp: "e" binds a flow end to the enclosing slice
	Args  [3]chromeArg // args: Args[:NArgs]
	NArgs int
}

// chromeArg is one entry of an event's "args" object: a string when Str is
// set, else the number Num.
type chromeArg struct {
	Key, Str string
	Num      int64
}

// args sets the event's arguments, which the caller gives in sorted key
// order.
func (e *chromeEvent) args(a ...chromeArg) { e.NArgs = copy(e.Args[:], a) }

// appendJSON appends the event's JSON object.
func (e *chromeEvent) appendJSON(b []byte) []byte {
	b = append(b, `{"name":`...)
	b = appendJSONString(b, e.Name)
	if e.Cat != "" {
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, e.Cat)
	}
	b = append(b, `,"ph":`...)
	b = appendJSONString(b, e.Ph)
	b = append(b, `,"ts":`...)
	b = appendJSONFloat(b, e.Ts)
	if e.Dur != 0 {
		b = append(b, `,"dur":`...)
		b = appendJSONFloat(b, e.Dur)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(e.Pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.Tid), 10)
	if e.Scope != "" {
		b = append(b, `,"s":`...)
		b = appendJSONString(b, e.Scope)
	}
	if e.ID != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, int64(e.ID), 10)
	}
	if e.BP != "" {
		b = append(b, `,"bp":`...)
		b = appendJSONString(b, e.BP)
	}
	if e.NArgs > 0 {
		b = append(b, `,"args":{`...)
		for i, a := range e.Args[:e.NArgs] {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, a.Key)
			b = append(b, ':')
			if a.Str != "" {
				b = appendJSONString(b, a.Str)
			} else {
				b = strconv.AppendInt(b, a.Num, 10)
			}
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendJSONFloat formats f as encoding/json does: the shortest decimal
// that round-trips, in exponent form only below 1e-6 or from 1e21 up.
func appendJSONFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1] // e-07 → e-7
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// appendJSONString quotes s as encoding/json does: control characters,
// quote, backslash and the HTML-sensitive <, > and & escaped, invalid
// UTF-8 as U+FFFD, and U+2028 and U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
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
	return writeChrome(w, r, (*chromeEvent).appendJSON)
}

// writeChrome is WriteChrome with each event rendered by enc.
func writeChrome(w io.Writer, r *Recorder, enc func(*chromeEvent, []byte) []byte) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	var buf []byte
	emit := func(e *chromeEvent) error {
		if buf == nil {
			buf = enc(e, make([]byte, 0, 256))
		} else {
			buf = enc(e, append(buf[:0], ",\n"...))
		}
		_, err := w.Write(buf)
		return err
	}

	meta := chromeEvent{Name: "process_name", Ph: "M"}
	meta.args(chromeArg{Key: "name", Str: "zpl simulated machine"})
	if err := emit(&meta); err != nil {
		return err
	}
	for rank := 0; rank < r.Procs(); rank++ {
		label := r.ProcLabel(rank)
		if label == "" {
			label = fmt.Sprintf("proc %d", rank)
		}
		meta = chromeEvent{Name: "thread_name", Ph: "M", Tid: rank}
		meta.args(chromeArg{Key: "name", Str: label})
		if err := emit(&meta); err != nil {
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
				ce.args(chromeArg{Key: "bytes", Num: e.A1}, chromeArg{Key: "to", Num: e.A0})
			case KindRecv:
				ce.Ph, ce.Scope = "i", "t"
				ce.args(chromeArg{Key: "bytes", Num: e.A1}, chromeArg{Key: "from", Num: e.A0})
			case KindCall:
				ce.Ph = "X"
				ce.Dur = float64(e.Dur) / 1000
				call := "?"
				if e.A0 >= 0 && int(e.A0) < len(callKindNames) {
					call = callKindNames[e.A0]
				}
				ce.args(chromeArg{Key: "bytes", Num: e.A1}, chromeArg{Key: "call", Str: call})
			case KindStmt:
				ce.Ph = "X"
				ce.Dur = float64(e.Dur) / 1000
				engine := "scalar"
				if e.A0 == EngineKernel {
					engine = "kernel"
				}
				ce.args(chromeArg{Key: "engine", Str: engine})
			case KindReduce:
				ce.Ph = "X"
				ce.Dur = float64(e.Dur) / 1000
				// Per-hop spans carry their algorithm level, payload and
				// peer; the whole-reduction span (A0 < 0) has no per-hop
				// detail.
				if e.A0 >= 0 {
					ce.args(chromeArg{Key: "bytes", Num: e.A1}, chromeArg{Key: "level", Num: e.A0}, chromeArg{Key: "peer", Num: e.A2})
				}
			default:
				ce.Ph = "X"
				ce.Dur = float64(e.Dur) / 1000
			}
			if err := emit(&ce); err != nil {
				return err
			}
			if f, ok := flows[[2]int{rank, i}]; ok {
				fe := chromeEvent{Name: "msg", Cat: "flow", Ts: ce.Ts, Tid: rank, ID: f.id}
				if f.finish {
					fe.Ph, fe.BP = "f", "e"
				} else {
					fe.Ph = "s"
				}
				if err := emit(&fe); err != nil {
					return err
				}
			}
		}
	}
	_, err := fmt.Fprintf(w, "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"virtual\",\"droppedEvents\":%d}}\n", r.Dropped())
	return err
}

// WriteChromeFile writes WriteChrome's output to the file at path, through
// one buffer. Every error it returns starts with "trace: ".
func WriteChromeFile(path string, r *Recorder) error {
	f, err := os.Create(path)
	if err == nil {
		bw := bufio.NewWriterSize(f, 1<<16)
		if err = WriteChrome(bw, r); err == nil {
			err = bw.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
