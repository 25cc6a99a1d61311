package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// comparable refuses pairs of results that measured different things: the
// thread count, the seed, the run length or a workload's sizes differ.
func comparable(a, b *resultFile) error {
	switch {
	case a.Env.GOMAXPROCS != b.Env.GOMAXPROCS:
		return fmt.Errorf("gomaxprocs differ: %d vs %d", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	case a.Env.Seed != b.Env.Seed:
		return fmt.Errorf("seeds differ: %d vs %d", a.Env.Seed, b.Env.Seed)
	case a.Env.Seconds != b.Env.Seconds || a.Env.Smoke != b.Env.Smoke:
		return fmt.Errorf("run lengths differ: %gs vs %gs", a.Env.Seconds, b.Env.Seconds)
	case len(a.Workloads) != len(b.Workloads):
		return fmt.Errorf("workload lists differ: %d vs %d workloads", len(a.Workloads), len(b.Workloads))
	}
	for i, wa := range a.Workloads {
		if wb := b.Workloads[i]; wa.Name != wb.Name || !slices.Equal(wa.Sizes, wb.Sizes) {
			return fmt.Errorf("workload %d differs: %s %v vs %s %v", i, wa.Name, wa.Sizes, wb.Name, wb.Sizes)
		}
	}
	return nil
}

// verdict applies one end-to-end metric's bound to a base and a new
// measurement. Where either side's own spread (quartile distance over
// median) is wider than the bound the pair is unresolved, unless every
// sample of the new side reads better than every sample of the base.
func verdict(d metricDef, base, next stat) string {
	worse := func(x, y float64) bool { // x reads worse than y
		if d.Better == "higher" {
			return x < y
		}
		return x > y
	}
	spread := func(s stat) float64 {
		if s.Value == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / s.Value
	}
	if max(spread(base), spread(next)) > d.Bound {
		for _, x := range next.Samples {
			for _, y := range base.Samples {
				if !worse(y, x) {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	limit := base.Value * (1 + d.Bound)
	if d.Better == "higher" {
		limit = base.Value * (1 - d.Bound)
	}
	if worse(next.Value, limit) {
		return "regressed"
	}
	return "ok"
}

// exactValue reads one of the exactLeaves out of a workload's result.
func exactValue(w workloadResult, name string) (float64, bool) {
	switch name {
	case "sim_s":
		return w.SimS, true
	case "ops_per_rep":
		return float64(w.OpsPerRep), true
	}
	s, ok := w.Layers[name]
	return s.Value, ok
}

// compareFiles prints one row per end-to-end metric and workload, then the
// exact leaves, and returns 1 when any row regressed.
func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	a, errA := readResult(pathA)
	b, errB := readResult(pathB)
	err := errors.Join(errA, errB)
	if err == nil {
		err = comparable(a, b)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: cannot compare: %v\n", err)
		return 2
	}
	return compareResults(stdout, a, b)
}

func compareResults(stdout io.Writer, a, b *resultFile) int {
	fmt.Fprintf(stdout, "base %s (%s)  new %s (%s)  gomaxprocs %d  seed %d\n",
		a.Env.Commit, a.Env.GoVersion, b.Env.Commit, b.Env.GoVersion, a.Env.GOMAXPROCS, a.Env.Seed)
	fmt.Fprintf(stdout, "%-16s %-12s %12s %25s %3s %12s %25s %3s %18s %6s %s\n",
		"workload", "metric", "base", "[q1, q3]", "n", "new", "[q1, q3]", "n", "new/base", "bound", "verdict")
	regressed := false
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, d := range endToEnd {
			sa, sb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			v := verdict(d, sa, sb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(stdout, "%-16s %-12s %12.6g [%11.6g,%11.6g] %3d %12.6g [%11.6g,%11.6g] %3d %7.4f of %8.4g %5.0f%% %s\n",
				wa.Name, d.Name, sa.Value, sa.Q1, sa.Q3, sa.N, sb.Value, sb.Q1, sb.Q3, sb.N, sb.Value/sa.Value, sa.Value, 100*d.Bound, v)
		}
		for _, name := range exactLeaves {
			va, okA := exactValue(wa, name)
			vb, okB := exactValue(wb, name)
			v := "ok"
			switch {
			case !okA || !okB:
				v = "unresolved" // a per-layer leaf, and one side ran without -trace 1
			case va != vb:
				v, regressed = "regressed", true
			}
			fmt.Fprintf(stdout, "%-16s %-12s %12.9g %29s %12.9g %29s %18s %6s %s\n", wa.Name, name, va, "", vb, "", "must be equal", "exact", v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
