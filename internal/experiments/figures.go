package experiments

import (
	"fmt"
	"io"

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
		lines := 1
		for _, c := range b.Source {
			if c == '\n' {
				lines++
			}
		}
		t.AddRow(b.Name, b.Description, b.PaperLineCount, lines)
	}
	return t
}

// Fig8 reproduces Figure 8: the reduction in communication counts due to
// redundant communication removal and communication combination, static
// and dynamic, scaled to the baseline.
func Fig8(r *Runner) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 8: reduction in communication counts (percent of baseline)",
		Headers: []string{"program", "rr static", "cc static", "rr dynamic", "cc dynamic"},
	}
	r.prefetch(BenchNames(), []string{"baseline", "rr", "cc"})
	for _, name := range BenchNames() {
		base, err := r.Cell(name, "baseline")
		if err != nil {
			return nil, err
		}
		rr, err := r.Cell(name, "rr")
		if err != nil {
			return nil, err
		}
		cc, err := r.Cell(name, "cc")
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			pct(rr.Static, base.Static), pct(cc.Static, base.Static),
			pct(rr.Dynamic, base.Dynamic), pct(cc.Dynamic, base.Dynamic))
	}
	return t, nil
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

// Fig10a reproduces Figure 10(a): execution times with PVM under each
// optimization, scaled to the baseline.
func Fig10a(r *Runner) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 10(a): performance of optimized benchmarks using PVM (percent of baseline time)",
		Headers: []string{"program", "baseline", "rr", "cc", "pl"},
	}
	r.prefetch(BenchNames(), []string{"baseline", "rr", "cc", "pl"})
	for _, name := range BenchNames() {
		base, err := r.Cell(name, "baseline")
		if err != nil {
			return nil, err
		}
		row := []any{name, "100%"}
		for _, key := range []string{"rr", "cc", "pl"} {
			c, err := r.Cell(name, key)
			if err != nil {
				return nil, err
			}
			row = append(row, pct64(int64(c.Time), int64(base.Time)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig10b reproduces Figure 10(b): pl versus pl-with-SHMEM, scaled to the
// baseline.
func Fig10b(r *Runner) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 10(b): performance using SHMEM (percent of baseline time)",
		Headers: []string{"program", "pl", "pl with shmem"},
	}
	r.prefetch(BenchNames(), []string{"baseline", "pl", "pl with shmem"})
	for _, name := range BenchNames() {
		base, err := r.Cell(name, "baseline")
		if err != nil {
			return nil, err
		}
		pl, err := r.Cell(name, "pl")
		if err != nil {
			return nil, err
		}
		sh, err := r.Cell(name, "pl with shmem")
		if err != nil {
			return nil, err
		}
		t.AddRow(name, pct64(int64(pl.Time), int64(base.Time)), pct64(int64(sh.Time), int64(base.Time)))
	}
	return t, nil
}

// Fig11 reproduces Figure 11: communication counts under the two
// combining heuristics, scaled to the baseline.
func Fig11(r *Runner) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 11: communication counts under combining heuristics (percent of baseline)",
		Headers: []string{"program", "max-combining static", "max-latency static", "max-combining dynamic", "max-latency dynamic"},
	}
	r.prefetch(BenchNames(), []string{"baseline", "pl with shmem", "pl with max latency"})
	for _, name := range BenchNames() {
		base, err := r.Cell(name, "baseline")
		if err != nil {
			return nil, err
		}
		mc, err := r.Cell(name, "pl with shmem")
		if err != nil {
			return nil, err
		}
		ml, err := r.Cell(name, "pl with max latency")
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			pct(mc.Static, base.Static), pct(ml.Static, base.Static),
			pct(mc.Dynamic, base.Dynamic), pct(ml.Dynamic, base.Dynamic))
	}
	return t, nil
}

// Fig12 reproduces Figure 12: execution times under the two combining
// heuristics (both with SHMEM), scaled to the baseline.
func Fig12(r *Runner) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 12: comparison of combining heuristics (percent of baseline time)",
		Headers: []string{"program", "pl with shmem", "pl with max latency"},
	}
	r.prefetch(BenchNames(), []string{"baseline", "pl with shmem", "pl with max latency"})
	for _, name := range BenchNames() {
		base, err := r.Cell(name, "baseline")
		if err != nil {
			return nil, err
		}
		mc, err := r.Cell(name, "pl with shmem")
		if err != nil {
			return nil, err
		}
		ml, err := r.Cell(name, "pl with max latency")
		if err != nil {
			return nil, err
		}
		t.AddRow(name, pct64(int64(mc.Time), int64(base.Time)), pct64(int64(ml.Time), int64(base.Time)))
	}
	return t, nil
}

// AppendixTable reproduces Tables 1-4: absolute static count, dynamic
// count and execution time for one benchmark under every experiment.
func AppendixTable(r *Runner, benchName string) (*report.Table, error) {
	title, err := resultsTitle(r, benchName)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Results for " + title,
		Headers: []string{"experiment", "static count", "dynamic count", "execution time (s)"},
	}
	r.prefetch([]string{benchName}, ExpKeys())
	for _, e := range Experiments() {
		c, err := r.Cell(benchName, e.Key)
		if err != nil {
			return nil, err
		}
		t.AddRow(e.Key, c.Static, c.Dynamic, fmt.Sprintf("%.6f", c.Time.Seconds()))
	}
	return t, nil
}

// resultsTitle is the tail of a per-benchmark results table's title: the
// problem size, the benchmark, the partition and the iteration count.
func resultsTitle(r *Runner, benchName string) (string, error) {
	bench, err := programs.ByName(benchName)
	if err != nil {
		return "", err
	}
	cfg := r.configVars(bench)
	size := fmt.Sprintf("%gx%g", cfg["n"], cfg["n"])
	if nz, ok := cfg["nz"]; ok {
		size += fmt.Sprintf("x%g", nz)
	}
	return fmt.Sprintf("%s %s on %d processors (%g iterations)", size, benchName, r.Procs, cfg["iters"]), nil
}

// RunAll regenerates every figure and table in order, writing the
// rendered output to w.
func RunAll(w io.Writer, r *Runner) error {
	Fig3().Render(w)
	Fig5().Render(w)
	for _, s := range Fig6() {
		s.Render(w)
	}
	Fig7().Render(w)
	Fig9().Render(w)
	// One prefetch covers every figure and appendix table below: the full
	// benchmark × experiment cross product runs on the worker pool, then
	// the sequential renders read only cached cells, so the output bytes
	// are identical at any worker count.
	r.prefetch(BenchNames(), ExpKeys())
	figs := []func(*Runner) (*report.Table, error){Fig8, Fig10a, Fig10b, Fig11, Fig12}
	for _, f := range figs {
		t, err := f(r)
		if err != nil {
			return err
		}
		t.Render(w)
	}
	for i, name := range BenchNames() {
		t, err := AppendixTable(r, name)
		if err != nil {
			return err
		}
		t.Title = fmt.Sprintf("Table %d: %s", i+1, t.Title)
		t.Render(w)
	}
	return nil
}

func pct(v, base int) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(v)/float64(base))
}

func pct64(v, base int64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(v)/float64(base))
}
