package experiments

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"commopt/internal/critpath"
	"commopt/internal/report"
)

// CritpathFor runs (or recalls) one benchmark under one experiment as an
// instrumented cell and returns its analyzed critical path, which sums
// exactly to the run's execution time (Runner.run checks it).
func (r *Runner) CritpathFor(benchName, expKey string) (*critpath.Path, error) {
	o, err := r.measure(cell{bench: benchName, exp: expKey, procs: r.Procs, instrumented: true})
	return o.path, err
}

// CritpathTable builds the critical-path decomposition of one benchmark
// across the six experiments: where the path's nanoseconds go (statement
// execution, communication software overhead, blocked waits), how many
// cross-processor hops the binding chain takes, and the dominant
// contributor. Because every cell's path sums exactly to its execution
// time, the comm-bound column is an attribution, not an estimate: it is
// the share of the finish time that communication is causally
// responsible for, the quantity each optimization level attacks.
func CritpathTable(r *Runner, benchName string) (*report.Table, error) {
	t := &report.Table{
		Title: fmt.Sprintf("critical path: %s at %d processors (exact attribution of the finish time)", benchName, r.Procs),
		Headers: []string{"experiment", "time (s)", "compute (ms)", "comm (ms)", "wait (ms)",
			"comm-bound", "hops", "procs", "dominant contributor"},
	}
	for _, exp := range Experiments() {
		p, err := r.CritpathFor(benchName, exp.Key)
		if err != nil {
			return nil, err
		}
		dominant := "-"
		if cs := p.Contributions(); len(cs) > 0 {
			c := cs[0]
			label := c.Label
			if c.Kind == critpath.Wait {
				label = "wait " + c.Reason.String()
				if c.Label != "" {
					label += " " + c.Label
				}
			}
			if c.Site != "" {
				label += " @ " + c.Site
			}
			dominant = fmt.Sprintf("%s (%s)", label, pct(int64(c.Dur), int64(p.Finish)))
		}
		t.AddRow(exp.Key,
			fmt.Sprintf("%.6f", p.Finish.Seconds()),
			fmt.Sprintf("%.3f", float64(p.Compute)/1e6),
			fmt.Sprintf("%.3f", float64(p.Comm)/1e6),
			fmt.Sprintf("%.3f", float64(p.Wait)/1e6),
			commBoundPct(p),
			p.Hops, p.Procs, dominant)
	}
	return t, nil
}

// commBoundPct renders the communication-bound share of one path.
func commBoundPct(p *critpath.Path) string {
	if p.Finish == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(p.CommBound())/float64(p.Finish))
}

// critpathMonotone reports whether one benchmark's comm-bound path time
// shrinks monotonically across the pvm optimization ladder baseline ->
// rr -> cc -> pl, with a strict overall improvement.
func critpathMonotone(r *Runner, benchName string) (bool, []string, error) {
	ladder := []string{"baseline", "rr", "cc", "pl"}
	var bounds []int64
	var steps []string
	for _, key := range ladder {
		p, err := r.CritpathFor(benchName, key)
		if err != nil {
			return false, nil, err
		}
		bounds = append(bounds, int64(p.CommBound()))
		steps = append(steps, fmt.Sprintf("%s %.3fms", key, float64(p.CommBound())/1e6))
	}
	nonIncreasing := slices.IsSortedFunc(bounds, func(a, b int64) int { return cmp.Compare(b, a) })
	return nonIncreasing && bounds[len(bounds)-1] < bounds[0], steps, nil
}

// RunCritpath writes the critical-path tables of every benchmark and
// then enforces the experiment's acceptance claim: the comm-bound share
// of the critical path must shrink monotonically baseline -> rr -> cc ->
// pl on at least three of the four benchmarks. A level that fails to
// shorten the binding chain of communication it claims to optimize is a
// regression this experiment exists to catch.
func RunCritpath(w io.Writer, r *Runner) error {
	benches := BenchNames()
	// Warm the cache on the worker pool; errors surface on the ordered
	// reads below, exactly as Runner.prefetch does for Cell.
	r.measureAll(r.gridCells(benches, ExpKeys(), true)) //nolint:errcheck // surfaced on the ordered read

	if err := eachBench(CritpathTable)(w, r); err != nil {
		return err
	}

	mono := 0
	var lines []string
	for _, name := range benches {
		ok, steps, err := critpathMonotone(r, name)
		if err != nil {
			return err
		}
		verdict := "shrinks monotonically"
		if ok {
			mono++
		} else {
			verdict = "NOT monotone"
		}
		lines = append(lines, fmt.Sprintf("  %-8s %s: %s", name, verdict, strings.Join(steps, " -> ")))
	}
	fmt.Fprintf(w, "comm-bound critical path across the pvm ladder (%d/%d benchmarks monotone):\n%s\n\n",
		mono, len(benches), strings.Join(lines, "\n"))
	if need := 3; mono < need {
		return fmt.Errorf("experiments: comm-bound critical path shrinks monotonically baseline->pl on only %d of %d benchmarks (need %d)",
			mono, len(benches), need)
	}
	return nil
}
