package experiments

import (
	"fmt"
	"io"

	"commopt/internal/report"
)

// A section is one part of the report: a figure, a table or an extension
// experiment, rendered as one table or written by a function of its own.
// key is the name icpp97 -exp gives it (none for a part only its report
// renders), in the key of the report that includes it, and caption a
// prefix of its table's title there.
type section struct {
	key, in, caption string
	table            func(*Runner) (*report.Table, error)
	write            func(io.Writer, *Runner) error
}

// sections is the report in order: the paper's figures and tables, then
// the extension experiments and the parts of the rdma report. profile,
// predict, critpath and rdma are opt-in appendices, never part of all, so
// the figure and table outputs stay byte-identical with and without them.
func sections() []section {
	s := []section{
		{key: "all", write: RunAll},
		{key: "fig3", in: "all", table: static(Fig3)},
		{key: "fig5", in: "all", table: static(Fig5)},
		{key: "fig6", in: "all", write: func(w io.Writer, _ *Runner) error {
			for _, s := range Fig6() {
				s.Render(w)
			}
			return nil
		}},
		{key: "fig7", in: "all", table: static(Fig7)},
		{key: "fig9", in: "all", table: static(Fig9)},
		{key: "fig8", in: "all", table: fig8.table},
		{key: "fig10a", in: "all", table: fig10a.table},
		{key: "fig10b", in: "all", table: fig10b.table},
		{key: "fig11", in: "all", table: fig11.table},
		{key: "fig12", in: "all", table: fig12.table},
	}
	for i, name := range BenchNames() {
		s = append(s, section{key: fmt.Sprintf("table%d", i+1), in: "all", caption: fmt.Sprintf("Table %d", i+1),
			table: func(r *Runner) (*report.Table, error) { return results(r, "Results", name, Experiments(), "") }})
	}
	s = append(s,
		section{key: "scaling", write: eachBench(func(r *Runner, name string) (*report.Table, error) {
			return Scaling(r, name, DefaultScalingProcs)
		})},
		section{key: "scalinglaw", table: func(r *Runner) (*report.Table, error) {
			return ScalingLaw(r, "simple", DefaultScalingLawProcs)
		}},
		section{key: "collective", table: func(r *Runner) (*report.Table, error) {
			return CollectiveTable(r, "simple", DefaultCollectiveProcs)
		}},
		section{key: "profile", write: RunProfiles},
		section{key: "predict", table: PredictTable},
		section{key: "critpath", write: RunCritpath},
		section{key: "rdma", write: RunRDMA},
		section{in: "rdma", table: static(rdmaMachine)},
		section{in: "rdma", write: eachBench(func(r *Runner, name string) (*report.Table, error) {
			return results(r, "RDMA results", name, RDMAExperiments(), "rdma-baseline")
		})},
		section{in: "rdma", table: rdmaSummary.table},
	)
	return s
}

// static adapts a table that needs no runs.
func static(t func() *report.Table) func(*Runner) (*report.Table, error) {
	return func(*Runner) (*report.Table, error) { return t(), nil }
}

// eachBench writes table's table of every benchmark in turn.
func eachBench(table func(*Runner, string) (*report.Table, error)) func(io.Writer, *Runner) error {
	return func(w io.Writer, r *Runner) error {
		for _, name := range BenchNames() {
			t, err := table(r, name)
			if err != nil {
				return err
			}
			t.Render(w)
		}
		return nil
	}
}

// render writes the section, its table titled under caption if one is
// given.
func (s section) render(w io.Writer, r *Runner, caption string) error {
	if s.write != nil {
		return s.write(w, r)
	}
	t, err := s.table(r)
	if err != nil {
		return err
	}
	if caption != "" {
		t.Title = caption + ": " + t.Title
	}
	t.Render(w)
	return nil
}

// walk renders the sections of the report in, in order.
func walk(w io.Writer, r *Runner, in string) error {
	for _, s := range sections() {
		if s.in == in {
			if err := s.render(w, r, s.caption); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunAll regenerates every figure and table of the paper in order. One
// prefetch of the full benchmark × experiment cross product runs on the
// worker pool first; the renders then read only cached cells, so the
// output bytes are identical at any worker count.
func RunAll(w io.Writer, r *Runner) error {
	r.prefetch(BenchNames(), ExpKeys())
	return walk(w, r, "all")
}

// Keys returns the -exp keys in report order.
func Keys() []string {
	var keys []string
	for _, s := range sections() {
		if s.key != "" {
			keys = append(keys, s.key)
		}
	}
	return keys
}

// Render writes the section that the -exp key names.
func Render(w io.Writer, r *Runner, key string) error {
	for _, s := range sections() {
		if s.key != "" && s.key == key {
			return s.render(w, r, "")
		}
	}
	return fmt.Errorf("unknown experiment %q", key)
}
