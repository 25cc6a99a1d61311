// Package metrics is a small registry of named counters and fixed-bucket
// histograms for the simulator's observability subsystem: message sizes,
// wait durations, statement times and call counts. A registry is
// single-writer (the runtime folds every processor's observations into
// one under a lock), renders as aligned text or as JSON following the
// internal/diag wire conventions (stable structs, two-space indent), and
// is fully deterministic: fixed bucket bounds, name-sorted output.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Counter is a named monotonic count.
type Counter struct {
	Name string
	N    int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) { c.N += n }

// Gauge is a named maximum: Observe keeps the largest value seen. The
// runtime uses gauges for high-water marks (runnable-queue depth,
// mailbox depth), which take the max across processors where counters
// would wrongly sum.
type Gauge struct {
	Name string
	V    int64
	set  bool
}

// Observe records one value, keeping the maximum.
func (g *Gauge) Observe(v int64) {
	if !g.set || v > g.V {
		g.V = v
		g.set = true
	}
}

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// bounds in ascending order; one implicit overflow bucket catches values
// above the last bound. Sum, Min and Max are exact regardless of
// bucketing.
type Histogram struct {
	Name   string
	Unit   string
	bounds []int64
	counts []int64 // len(bounds)+1; the last is the overflow bucket
	count  int64
	sum    int64
	min    int64
	max    int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// ExpBounds builds n exponential bucket bounds lo, lo*factor, ... —
// the fixed geometry used for size and duration distributions.
func ExpBounds(lo, factor int64, n int) []int64 {
	out := make([]int64, n)
	v := lo
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry holds one run's counters, gauges and histograms.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{counters: map[string]*Counter{}, gauges: map[string]*Gauge{}, hists: map[string]*Histogram{}}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{Name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it unset on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{Name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given unit
// and bounds on first use (a later call's are ignored). Bounds must be
// ascending and non-empty.
func (r *Registry) Histogram(name, unit string, bounds []int64) *Histogram {
	h := r.hists[name]
	if h == nil {
		if len(bounds) == 0 {
			panic("metrics: histogram needs at least one bucket bound")
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
			}
		}
		h = &Histogram{Name: name, Unit: unit, bounds: append([]int64(nil), bounds...), counts: make([]int64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// Counters returns every counter sorted by name.
func (r *Registry) Counters() []*Counter {
	out := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Gauges returns every gauge sorted by name.
func (r *Registry) Gauges() []*Gauge {
	out := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Histograms returns every histogram sorted by name.
func (r *Registry) Histograms() []*Histogram {
	out := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Text renders the registry as aligned human-readable lines: one line per
// counter, then each histogram with its non-empty buckets.
func (r *Registry) Text(w io.Writer) {
	width := 0
	for _, c := range r.Counters() {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, c := range r.Counters() {
		fmt.Fprintf(w, "counter  %-*s  %d\n", width, c.Name, c.N)
	}
	gwidth := 0
	for _, g := range r.Gauges() {
		if len(g.Name) > gwidth {
			gwidth = len(g.Name)
		}
	}
	for _, g := range r.Gauges() {
		fmt.Fprintf(w, "gauge    %-*s  %d\n", gwidth, g.Name, g.V)
	}
	for _, h := range r.Histograms() {
		fmt.Fprintf(w, "hist     %s (%s): count %d, sum %d, min %d, max %d\n",
			h.Name, h.Unit, h.count, h.sum, h.min, h.max)
		for i, b := range h.bounds {
			if h.counts[i] != 0 {
				fmt.Fprintf(w, "           <= %-12d %d\n", b, h.counts[i])
			}
		}
		if over := h.counts[len(h.bounds)]; over != 0 {
			fmt.Fprintf(w, "           >  %-12d %d\n", h.bounds[len(h.bounds)-1], over)
		}
	}
}

// jsonCounter and jsonHistogram are the stable wire forms (the diag
// package's JSON conventions: fixed field order, two-space indent).
type jsonCounter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

type jsonBucket struct {
	Le    string `json:"le"` // inclusive upper bound; "+inf" for overflow
	Count int64  `json:"count"`
}

type jsonHistogram struct {
	Name    string       `json:"name"`
	Unit    string       `json:"unit"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Buckets []jsonBucket `json:"buckets"`
}

type jsonGauge struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

type jsonRegistry struct {
	Counters   []jsonCounter   `json:"counters"`
	Gauges     []jsonGauge     `json:"gauges,omitempty"`
	Histograms []jsonHistogram `json:"histograms"`
}

// WriteJSON renders the registry as one JSON object.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := jsonRegistry{Counters: []jsonCounter{}, Histograms: []jsonHistogram{}}
	for _, c := range r.Counters() {
		out.Counters = append(out.Counters, jsonCounter{Name: c.Name, Value: c.N})
	}
	for _, g := range r.Gauges() {
		out.Gauges = append(out.Gauges, jsonGauge{Name: g.Name, Value: g.V})
	}
	for _, h := range r.Histograms() {
		jh := jsonHistogram{Name: h.Name, Unit: h.Unit, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		for i, b := range h.bounds {
			jh.Buckets = append(jh.Buckets, jsonBucket{Le: fmt.Sprint(b), Count: h.counts[i]})
		}
		jh.Buckets = append(jh.Buckets, jsonBucket{Le: "+inf", Count: h.counts[len(h.bounds)]})
		out.Histograms = append(out.Histograms, jh)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
