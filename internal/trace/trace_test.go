package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"commopt/internal/vtime"
)

func ev(start int64, name string) Event {
	return Event{Kind: KindStmt, Start: vtime.Time(start), Name: name}
}

// A buffer below capacity keeps everything in record order.
func TestBufferNoWrap(t *testing.T) {
	b := newBuffer(4)
	b.Add(ev(1, "a"))
	b.Add(ev(2, "b"))
	if b.Len() != 2 || b.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", b.Len(), b.Dropped())
	}
	got := b.Events()
	if got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("events = %v", got)
	}
}

// A full ring evicts the oldest events, counts them, and Events still
// returns record order.
func TestBufferWrap(t *testing.T) {
	b := newBuffer(3)
	for i := 1; i <= 5; i++ {
		b.Add(ev(int64(i), fmt.Sprintf("e%d", i)))
	}
	if b.Len() != 3 {
		t.Fatalf("len = %d, want 3", b.Len())
	}
	if b.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", b.Dropped())
	}
	var names []string
	for _, e := range b.Events() {
		names = append(names, e.Name)
	}
	if got := strings.Join(names, " "); got != "e3 e4 e5" {
		t.Fatalf("events = %q, want \"e3 e4 e5\"", got)
	}
}

// The zero Cap falls back to DefaultCap.
func TestBufferDefaultCap(t *testing.T) {
	b := newBuffer(0)
	if b.cap != DefaultCap {
		t.Fatalf("cap = %d, want %d", b.cap, DefaultCap)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindCall: "ironman", KindSend: "send", KindRecv: "recv",
		KindStmt: "stmt", KindWait: "wait", KindReduce: "reduce", Kind(99): "?",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

// sampleRecorder builds a two-processor recording exercising every event
// kind, including a reduce span recorded after its inner wait (the case
// that forces WriteChrome's per-rank sort).
func sampleRecorder() *Recorder {
	r := NewRecorder()
	r.Init(2)
	r.SetProcLabel(0, "proc 0 (0,0)")
	b0 := r.Buffer(0)
	b0.Add(Event{Kind: KindCall, Start: 0, Dur: 100, Name: "SR U@[0,1,0]", A0: 1, A1: 64})
	b0.Add(Event{Kind: KindSend, Start: 40, Name: "send", A0: 1, A1: 64})
	b0.Add(Event{Kind: KindStmt, Start: 100, Dur: 500, Name: "U := ... (3:1)", A0: EngineKernel})
	// Inner wait recorded before the enclosing reduce span.
	b0.Add(Event{Kind: KindWait, Start: 700, Dur: 100, Name: "wait reduce"})
	b0.Add(Event{Kind: KindReduce, Start: 600, Dur: 300, Name: "allreduce max"})
	b1 := r.Buffer(1)
	b1.Add(Event{Kind: KindCall, Start: 0, Dur: 80, Name: "DN U@[0,1,0]", A0: 2, A1: 0})
	b1.Add(Event{Kind: KindRecv, Start: 60, Name: "recv", A0: 0, A1: 64})
	return r
}

// WriteChrome output is deterministic, validates against the trace-event
// schema, and carries one named row per processor.
func TestWriteChromeDeterministicAndValid(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChrome(&a, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two renderings of the same recording differ")
	}
	if err := ValidateChrome(a.Bytes()); err != nil {
		t.Fatalf("ValidateChrome: %v\n%s", err, a.String())
	}
	out := a.String()
	for _, want := range []string{
		`"proc 0 (0,0)"`, `"proc 1"`, // labeled and fallback row names
		`"SR U@[0,1,0]"`, `"allreduce max"`,
		`"call":"SR"`, `"engine":"kernel"`,
		`"ph":"i"`, `"s":"t"`,
		`"clock":"virtual"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %s", want)
		}
	}
}

// The reduce span (start 600) must be emitted before its inner wait
// (start 700) even though it was recorded after it.
func TestWriteChromeSortsNestedSpans(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	red, wait := strings.Index(out, `"allreduce max"`), strings.Index(out, `"wait reduce"`)
	if red < 0 || wait < 0 || red > wait {
		t.Fatalf("reduce span at %d not before inner wait at %d", red, wait)
	}
}

func TestValidateChromeRejects(t *testing.T) {
	cases := []struct {
		name, json, wantErr string
	}{
		{"not json", `{`, "trace"},
		{"no traceEvents", `{"other":[]}`, "traceEvents"},
		{"missing ph", `{"traceEvents":[{"name":"x","ts":0,"pid":0,"tid":0}]}`, "ph"},
		{"missing name", `{"traceEvents":[{"ph":"X","ts":0,"pid":0,"tid":0}]}`, "name"},
		{"bad phase", `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":0,"tid":0}]}`, "phase"},
		{"negative ts", `{"traceEvents":[{"name":"x","ph":"X","ts":-1,"pid":0,"tid":0}]}`, "negative"},
		{"negative dur", `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-2,"pid":0,"tid":0}]}`, "dur"},
		{"ts goes backward", `{"traceEvents":[
			{"name":"a","ph":"X","ts":5,"pid":0,"tid":7},
			{"name":"b","ph":"X","ts":4,"pid":0,"tid":7}]}`, "before previous"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ValidateChrome([]byte(c.json))
			if err == nil {
				t.Fatal("accepted invalid trace")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// Backward timestamps on different tids are fine: rows are independent
// timelines.
func TestValidateChromeAllowsInterleavedTids(t *testing.T) {
	j := `{"traceEvents":[
		{"name":"a","ph":"X","ts":5,"pid":0,"tid":0},
		{"name":"b","ph":"X","ts":1,"pid":0,"tid":1},
		{"name":"m","ph":"M","ts":0,"pid":0,"tid":0}]}`
	if err := ValidateChrome([]byte(j)); err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	}
}

// Init discards a previous recording.
func TestRecorderReinit(t *testing.T) {
	r := NewRecorder()
	r.Init(1)
	r.Buffer(0).Add(ev(1, "old"))
	r.Init(2)
	if r.Procs() != 2 || r.Buffer(0).Len() != 0 {
		t.Fatalf("procs=%d len=%d after reinit", r.Procs(), r.Buffer(0).Len())
	}
}

// Each matched send/recv pair renders as one flow: a "s" event on the
// sender's row and a "f" event (bound to the enclosing slice, bp "e") on
// the receiver's, sharing an id.
func TestWriteChromeFlowEvents(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ph":"s"`, `"ph":"f"`, `"id":1`, `"bp":"e"`, `"cat":"flow"`} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %s", want)
		}
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	}
}

// Ring eviction drops the oldest events, so flows align streams from the
// tail: a send whose receive was evicted (or vice versa) gets no flow,
// and the retained pairs still match one-to-one.
func TestMatchFlowsTailAligned(t *testing.T) {
	// Stream (0 -> 1, tag 7): three sends retained but only the last two
	// receives survived eviction.
	sorted := [][]Event{
		{
			{Kind: KindSend, Start: 10, Name: "send", A0: 1, A2: 7},
			{Kind: KindSend, Start: 20, Name: "send", A0: 1, A2: 7},
			{Kind: KindSend, Start: 30, Name: "send", A0: 1, A2: 7},
		},
		{
			{Kind: KindRecv, Start: 25, Name: "recv", A0: 0, A2: 7},
			{Kind: KindRecv, Start: 35, Name: "recv", A0: 0, A2: 7},
		},
	}
	flows := matchFlows(sorted)
	if len(flows) != 4 {
		t.Fatalf("%d flow endpoints, want 4 (two matched pairs): %v", len(flows), flows)
	}
	if _, ok := flows[[2]int{0, 0}]; ok {
		t.Error("the earliest send (whose receive was evicted) must not carry a flow")
	}
	for _, pair := range [][2][2]int{
		{{0, 1}, {1, 0}},
		{{0, 2}, {1, 1}},
	} {
		s, sok := flows[pair[0]]
		r, rok := flows[pair[1]]
		if !sok || !rok || s.id != r.id || s.finish || !r.finish {
			t.Errorf("pair %v mismatched: send %+v (ok %v), recv %+v (ok %v)", pair, s, sok, r, rok)
		}
	}
}

// Flow ids are deterministic: two renderings assign identical ids.
func TestMatchFlowsDeterministic(t *testing.T) {
	r := sampleRecorder()
	events := [][]Event{r.Buffer(0).Events(), r.Buffer(1).Events()}
	a, b := matchFlows(events), matchFlows(events)
	if len(a) != len(b) {
		t.Fatalf("endpoint counts differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("endpoint %v: %+v vs %+v", k, v, b[k])
		}
	}
}
