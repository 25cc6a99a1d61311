package experiments

import (
	"fmt"
	"slices"
	"strings"

	"commopt/internal/ironman"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/report"
)

// Fig3 reproduces Figure 3: machine parameters and communication
// libraries.
func Fig3() *report.Table {
	t := &report.Table{
		Title:   "Figure 3: machine parameters and communication libraries",
		Headers: []string{"machine", "communication library", "timer granularity"},
	}
	p, d := machine.Paragon(), machine.T3D()
	t.AddRow(fmt.Sprintf("%s (%.0f MHz)", p.Name, p.ClockMHz), "NX (message passing)", fmt.Sprintf("~%d ns", int64(p.TimerGranularity)))
	t.AddRow(fmt.Sprintf("%s (%.0f MHz)", d.Name, d.ClockMHz), "PVM (message passing), SHMEM (shared memory)", fmt.Sprintf("~%d ns", int64(d.TimerGranularity)))
	return t
}

// Fig5 reproduces Figure 5: the IRONMAN bindings on the Paragon and T3D.
func Fig5() *report.Table {
	t := &report.Table{
		Title:   "Figure 5: IRONMAN bindings on the Paragon and T3D",
		Headers: []string{"machine", "library", "DR", "SR", "DN", "SV"},
	}
	for _, b := range ironman.Bindings {
		t.AddRow(b.Machine, b.Library, b.DR, b.SR, b.DN, b.SV)
	}
	return t
}

// fig6Sizes are the message sizes (in doubles) swept by the synthetic
// benchmark.
var fig6Sizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Fig6 reproduces Figure 6: exposed communication cost versus message
// size for each primitive on the T3D and the Paragon.
func Fig6() []*report.Series {
	const iters = 10000
	mk := func(title string, mach *machine.Machine, libs []string) *report.Series {
		s := &report.Series{
			Title:  title,
			XLabel: "message size (doubles)",
			YLabel: "exposed overhead per transfer (us)",
		}
		for _, x := range fig6Sizes {
			s.X = append(s.X, float64(x))
		}
		for _, name := range libs {
			lib := mach.Libs[name]
			s.Names = append(s.Names, lib.Name)
			var ys []float64
			for _, size := range fig6Sizes {
				ys = append(ys, programs.SyntheticOverhead(lib, size, iters).Micros())
			}
			s.Y = append(s.Y, ys)
		}
		return s
	}
	return []*report.Series{
		mk("Figure 6a: exposed communication costs, Cray T3D", machine.T3D(), []string{"pvm", "shmem"}),
		mk("Figure 6b: exposed communication costs, Intel Paragon", machine.Paragon(), []string{"csend", "isend", "hsend"}),
	}
}

// Fig7 reproduces Figure 7: the experimental benchmark programs.
func Fig7() *report.Table {
	t := &report.Table{
		Title:   "Figure 7: experimental benchmark programs",
		Note:    "line counts are the paper's generated-C counts; ZPL subset line counts are this reproduction's sources",
		Headers: []string{"program", "description", "paper line count", "zpl subset lines"},
	}
	for _, b := range programs.Suite() {
		t.AddRow(b.Name, b.Description, b.PaperLineCount, 1+strings.Count(b.Source, "\n"))
	}
	return t
}

// Fig9 reproduces Figure 9: the key for the experiments performed.
func Fig9() *report.Table {
	t := &report.Table{
		Title:   "Figure 9: key for experiments performed",
		Headers: []string{"experiment", "description"},
	}
	for _, e := range Experiments() {
		t.AddRow(e.Key, e.Label)
	}
	return t
}

// A ladder is a figure of the paper's one shape: a row per benchmark, and
// in each column one experiment's count or time as a percent of the same
// measure under a base experiment (Figures 8 and 10-12, and the rdma
// summary).
type ladder struct {
	title   string
	headers []string // after "program"
	cols    []column
}

// A column is the measure of (static count, dynamic count or execution
// time) of experiment key, as a percent of the same measure of base.
type column struct {
	key, base string
	of        func(Cell) int64
}

func staticCount(c Cell) int64  { return int64(c.Static) }
func dynamicCount(c Cell) int64 { return int64(c.Dynamic) }
func execTime(c Cell) int64     { return int64(c.Time) }

// cols returns a column per key, each measured by of against base.
func cols(base string, of func(Cell) int64, keys ...string) []column {
	out := make([]column, len(keys))
	for i, k := range keys {
		out[i] = column{key: k, base: base, of: of}
	}
	return out
}

var (
	fig8 = ladder{"Figure 8: reduction in communication counts (percent of baseline)",
		[]string{"rr static", "cc static", "rr dynamic", "cc dynamic"},
		slices.Concat(cols("baseline", staticCount, "rr", "cc"), cols("baseline", dynamicCount, "rr", "cc"))}
	fig10a = ladder{"Figure 10(a): performance of optimized benchmarks using PVM (percent of baseline time)",
		[]string{"baseline", "rr", "cc", "pl"}, cols("baseline", execTime, "baseline", "rr", "cc", "pl")}
	fig10b = ladder{"Figure 10(b): performance using SHMEM (percent of baseline time)",
		[]string{"pl", "pl with shmem"}, cols("baseline", execTime, "pl", "pl with shmem")}
	fig11 = ladder{"Figure 11: communication counts under combining heuristics (percent of baseline)",
		[]string{"max-combining static", "max-latency static", "max-combining dynamic", "max-latency dynamic"},
		slices.Concat(cols("baseline", staticCount, "pl with shmem", "pl with max latency"),
			cols("baseline", dynamicCount, "pl with shmem", "pl with max latency"))}
	fig12 = ladder{"Figure 12: comparison of combining heuristics (percent of baseline time)",
		[]string{"pl with shmem", "pl with max latency"}, cols("baseline", execTime, "pl with shmem", "pl with max latency")}
)

// table prefetches every cell the ladder reads, then renders it.
func (l ladder) table(r *Runner) (*report.Table, error) {
	var keys []string
	for _, c := range l.cols {
		keys = append(keys, c.base, c.key)
	}
	slices.Sort(keys)
	r.prefetch(BenchNames(), slices.Compact(keys))
	t := &report.Table{Title: l.title, Headers: append([]string{"program"}, l.headers...)}
	for _, name := range BenchNames() {
		row := []any{name}
		for _, c := range l.cols {
			base, err := r.Cell(name, c.base)
			if err != nil {
				return nil, err
			}
			v, err := r.Cell(name, c.key)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(c.of(v), c.of(base)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// results reproduces Tables 1-4 and the rdma ladder's tables: one
// benchmark's absolute static count, dynamic count and execution time
// under each experiment, titled what, and where base names one of them,
// each time as a percent of base's. The rdma tables carry that column, the
// gain the T3D tables leave implicit, because it is the number the machine
// comparison is about.
func results(r *Runner, what, benchName string, exps []Experiment, base string) (*report.Table, error) {
	bench, err := programs.ByName(benchName)
	if err != nil {
		return nil, err
	}
	cfg := r.configVars(bench)
	size := fmt.Sprintf("%gx%g", cfg["n"], cfg["n"])
	if nz, ok := cfg["nz"]; ok {
		size += fmt.Sprintf("x%g", nz)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("%s for %s %s on %d processors (%g iterations)", what, size, benchName, r.Procs, cfg["iters"]),
		Headers: []string{"experiment", "static count", "dynamic count", "execution time (s)"},
	}
	if base != "" {
		t.Headers = append(t.Headers, "% of "+strings.ReplaceAll(base, "-", " "))
	}
	r.prefetch([]string{benchName}, keysOf(exps))
	for _, e := range exps {
		c, err := r.Cell(benchName, e.Key)
		if err != nil {
			return nil, err
		}
		row := []any{e.Key, c.Static, c.Dynamic, fmt.Sprintf("%.6f", c.Time.Seconds())}
		if base != "" {
			b, err := r.Cell(benchName, base)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(int64(c.Time), int64(b.Time)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// pct renders v as a whole percent of base.
func pct(v, base int64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(v)/float64(base))
}
