package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric. BENCHMARK.json carries the same lists;
// TestBenchmarkJSONMatchesHarness keeps the two identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base median it may worsen by
}

// endToEnd are the metrics a user of the reproduction sees. wall_s, cpu_s
// and alloc_mb are medians over the timed repetitions of one run;
// peak_rss_mb is read once, after the warm-up repetition and before the
// harness builds its references; setup_s is the median over fresh
// processes. The three times are over the host's slowdown as the
// yardstick saw it (yardstick.go). sim_s and fail_ratio are end-to-end
// too but exact (virtual time repeats to the nanosecond, and no check may
// fail), so they are compared for equality (exactLeaves) and reported
// through the contract's attempted/failed fields instead of carrying a
// bound.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.03},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, measured from outside in the
// traced run. The module name before the dot is the layer. A metric a
// workload does not exercise reads 0 there (README.md, interaction table).
var perLayer = []metricDef{
	{Name: "zpl.parse_us", Unit: "us", Better: "lower"},
	{Name: "ir.lower_us", Unit: "us", Better: "lower"},
	{Name: "comm.plan_us", Unit: "us", Better: "lower"},
	{Name: "comm.static_count", Unit: "count", Better: "lower"},
	{Name: "cost.predict_us", Unit: "us", Better: "lower"},
	{Name: "cost.exact_ratio", Unit: "ratio", Better: "higher"},
	{Name: "collective.resolve_us", Unit: "us", Better: "lower"},
	{Name: "collective.msgs_per_reduction", Unit: "count", Better: "lower"},
	{Name: "collective.cpu_us_per_reduction", Unit: "us", Better: "lower"},
	{Name: "rt.world_s", Unit: "s", Better: "lower"},
	{Name: "rt.first_iter_s", Unit: "s", Better: "lower"},
	{Name: "rt.steady_iter_ms", Unit: "ms", Better: "lower"},
	{Name: "rt.cpu_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "rt.cpu_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "rt.cpu_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "rt.ironman_calls", Unit: "count", Better: "lower"},
	{Name: "rt.messages", Unit: "count", Better: "lower"},
	{Name: "rt.bytes_sent", Unit: "bytes", Better: "lower"},
	{Name: "rt.stmts_kernel", Unit: "count", Better: "lower"},
	{Name: "rt.stmts_fused", Unit: "count", Better: "higher"},
	{Name: "rt.async_sends", Unit: "count", Better: "higher"},
	{Name: "rt.sched_steps", Unit: "count", Better: "lower"},
	{Name: "rt.sched_parks", Unit: "count", Better: "lower"},
	{Name: "rt.parks_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "rt.runq_hiwater", Unit: "count", Better: "lower"},
	{Name: "rt.mbox_hiwater", Unit: "count", Better: "lower"},
	{Name: "rt.mallocs", Unit: "count", Better: "lower"},
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "rt.sim_s", Unit: "sim_s", Better: "lower"},
	{Name: "rt.sim_comm_share", Unit: "ratio", Better: "lower"},
	{Name: "experiments.cells", Unit: "count", Better: "higher"},
	{Name: "experiments.cpu_s_per_cell", Unit: "s", Better: "lower"},
	{Name: "experiments.parallelism", Unit: "ratio", Better: "higher"},
	{Name: "experiments.render_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.events", Unit: "count", Better: "lower"},
	{Name: "trace.write_ms", Unit: "ms", Better: "lower"},
	{Name: "critpath.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "critpath.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.host_slowdown", Unit: "ratio", Better: "lower"},
}

// exactLeaves repeat bit for bit on one commit and must not move under a
// host-time change; -compare reports any difference as regressed.
var exactLeaves = []string{"sim_s", "ops_per_rep", "rt.messages", "comm.static_count"}

// stat is one reported metric: the median of its samples with quartiles.
type stat struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

func newStat(unit string, samples ...float64) stat {
	s := stat{Unit: unit, N: len(samples), Samples: samples}
	s.Q1, s.Value, s.Q3 = quartiles(samples)
	return s
}

// quartiles returns the first quartile, median and third quartile by
// linear interpolation between closest ranks.
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return ru
}

// cpuNow returns the process's user+system CPU time so far.
func cpuNow() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark. Linux
// reports ru_maxrss in KiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// meter accumulates the host cost of the calls it measures: wall and CPU
// time, heap bytes and objects allocated, GC cycles completed.
type meter struct {
	wall, cpu time.Duration
	alloc     uint64
	mallocs   uint64
	gcs       uint32
}

func (m *meter) measure(f func()) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	c0 := cpuNow()
	t0 := time.Now()
	f()
	m.wall += time.Since(t0)
	m.cpu += cpuNow() - c0
	runtime.ReadMemStats(&b)
	m.alloc += b.TotalAlloc - a.TotalAlloc
	m.mallocs += b.Mallocs - a.Mallocs
	m.gcs += b.NumGC - a.NumGC
}

// printStats writes one row per metric: name, value, unit, and for timed
// metrics the sample count and quartiles beside the median.
func printStats(w io.Writer, defs []metricDef, stats map[string]stat) {
	for _, d := range defs {
		s, ok := stats[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s", d.Name, s.Value, s.Unit)
		if s.N > 1 {
			fmt.Fprintf(w, " n=%-3d q1=%.6g q3=%.6g", s.N, s.Q1, s.Q3)
		}
		fmt.Fprintln(w)
	}
}
