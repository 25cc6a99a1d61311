package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside by the
// harness. Times are microseconds since the tracer started.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // -1 for the root
	Name     string  `json:"name"`   // layer.func
	Detail   string  `json:"detail,omitempty"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
	CPUUS    float64 `json:"cpu_us"`
	SelfUS   float64 `json:"self_us"` // duration minus the child spans' durations
	cpuStart time.Duration
}

func (s *span) durUS() float64 { return s.EndUS - s.StartUS }

// tracer keeps the spans of one traced run in memory. It is used from one
// goroutine: spans nest by a stack, so a span's children never overlap
// and self times partition the root exactly. A nil tracer records
// nothing, which is how the timed repetitions run.
type tracer struct {
	workload string
	rep      int
	t0       time.Time
	spans    []span
	stack    []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name, detail string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Detail: detail,
		Workload: t.workload, Rep: t.rep,
		cpuStart: cpuNow(), StartUS: t.now(),
	})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	n := len(t.stack)
	if n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.stack = t.stack[:n-1]
	s := &t.spans[id]
	s.EndUS = t.now()
	s.CPUUS = float64((cpuNow() - s.cpuStart).Nanoseconds()) / 1e3
}

// in runs f inside a span.
func (t *tracer) in(name, detail string, f func()) {
	id := t.begin(name, detail)
	defer t.end(id)
	f()
}

// finish computes every span's self time. All spans must be closed.
func (t *tracer) finish() {
	if len(t.stack) != 0 {
		panic("bench: tracer finished with open spans")
	}
	for i := range t.spans {
		t.spans[i].SelfUS = t.spans[i].durUS()
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfUS -= s.durUS()
		}
	}
}

// durations returns the wall time of every span with the name, in
// microseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.durUS())
		}
	}
	return out
}

// writeFile writes the spans as JSON to dir/trace.<workload>.json.
func (t *tracer) writeFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace."+t.workload+".json")
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// printLedger writes the per-layer table of the traced run: spans grouped
// by name with their total, self and CPU time. Self times sum to the root.
func (t *tracer) printLedger(w io.Writer) {
	type row struct {
		name            string
		n               int
		total, self, cp float64
	}
	byName := map[string]*row{}
	var rows []*row
	for _, s := range t.spans {
		r := byName[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			byName[s.Name] = r
			rows = append(rows, r)
		}
		r.n++
		r.total += s.durUS()
		r.self += s.SelfUS
		r.cp += s.CPUUS
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Fprintf(w, "  %-28s %6s %12s %12s %12s\n", "span", "calls", "total_ms", "self_ms", "cpu_ms")
	var selfSum float64
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %6d %12.3f %12.3f %12.3f\n", r.name, r.n, r.total/1e3, r.self/1e3, r.cp/1e3)
		selfSum += r.self
	}
	if len(t.spans) > 0 {
		fmt.Fprintf(w, "  self times sum to %.3f ms; root span %.3f ms\n", selfSum/1e3, t.spans[0].durUS()/1e3)
	}
}
