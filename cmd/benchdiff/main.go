// Command benchdiff compares freshly emitted benchmark JSON against the
// committed BENCH_*.json snapshots and fails when a metric moved outside
// its tolerance. It replaces eyeballing the snapshots in review: the
// deterministic metrics (simulated seconds, message counts, grid labels)
// must match exactly, while host-time metrics get wide tolerances so the
// gate catches order-of-magnitude regressions without flaking on noisy
// CI machines.
//
// Usage:
//
//	benchdiff OLD NEW         # two snapshot files
//	benchdiff OLDDIR NEWDIR   # every BENCH_*.json present in both
//	benchdiff -v OLD NEW      # also print the metrics that passed
//
// Tolerance rules, applied to each metric by its leaf key, first match
// wins:
//
//	*_over_* , *speedup*           ratio within 3x of the snapshot
//	*allocs*                       at most 1.5x the snapshot (shrinking is fine)
//	*ns_per_op, *_seconds          ratio within 10x (host time; sim_seconds
//	                               is simulated and exempt — exact)
//	everything else                exact match
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	verbose := flag.Bool("v", false, "print passing metrics too")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-v] OLD NEW (files or directories)")
		os.Exit(2)
	}
	pairs, err := resolvePairs(flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	failed := false
	for _, pr := range pairs {
		n, errs, err := diffFiles(pr[0], pr[1], *verbose, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		name := filepath.Base(pr[0])
		if len(errs) == 0 {
			fmt.Printf("%s: %d metrics within tolerance\n", name, n)
			continue
		}
		failed = true
		fmt.Printf("%s: %d of %d metrics out of tolerance\n", name, len(errs), n)
		for _, e := range errs {
			fmt.Printf("  FAIL %s\n", e)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// resolvePairs expands the two arguments into (old, new) file pairs:
// either one pair of files, or the BENCH_*.json names present in both
// directories (it is an error if either directory contributes none).
func resolvePairs(oldArg, newArg string) ([][2]string, error) {
	oi, err := os.Stat(oldArg)
	if err != nil {
		return nil, err
	}
	ni, err := os.Stat(newArg)
	if err != nil {
		return nil, err
	}
	if oi.IsDir() != ni.IsDir() {
		return nil, fmt.Errorf("%s and %s must both be files or both directories", oldArg, newArg)
	}
	if !oi.IsDir() {
		return [][2]string{{oldArg, newArg}}, nil
	}
	names, err := filepath.Glob(filepath.Join(oldArg, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	var pairs [][2]string
	for _, old := range names {
		fresh := filepath.Join(newArg, filepath.Base(old))
		if _, err := os.Stat(fresh); err == nil {
			pairs = append(pairs, [2]string{old, fresh})
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("no BENCH_*.json present in both %s and %s", oldArg, newArg)
	}
	return pairs, nil
}

// diffFiles compares one snapshot pair and returns the metric count and
// the failures.
func diffFiles(oldPath, newPath string, verbose bool, w *os.File) (int, []string, error) {
	old, err := loadFlat(oldPath)
	if err != nil {
		return 0, nil, err
	}
	fresh, err := loadFlat(newPath)
	if err != nil {
		return 0, nil, err
	}
	keys := make([]string, 0, len(old))
	for k := range old {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var errs []string
	for k := range fresh {
		if _, ok := old[k]; !ok {
			errs = append(errs, fmt.Sprintf("%s: metric not in snapshot (regenerate %s?)", k, filepath.Base(oldPath)))
		}
	}
	for _, k := range keys {
		nv, ok := fresh[k]
		if !ok {
			errs = append(errs, fmt.Sprintf("%s: metric missing from fresh output", k))
			continue
		}
		rule, err := compareMetric(leafKey(k), old[k], nv)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", k, err))
		} else if verbose {
			fmt.Fprintf(w, "  ok   %-60s %-10s %v -> %v\n", k, rule, old[k], nv)
		}
	}
	sort.Strings(errs)
	return len(keys), errs, nil
}

// loadFlat parses one snapshot into a flat path -> leaf map.
func loadFlat(path string) (map[string]any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]any{}
	flatten("", v, out)
	return out, nil
}

// flatten walks a decoded JSON value, joining object keys with "." and
// array elements with their index; leaves land in out.
func flatten(prefix string, v any, out map[string]any) {
	switch t := v.(type) {
	case map[string]any:
		for k, e := range t {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, e, out)
		}
	case []any:
		for i, e := range t {
			flatten(fmt.Sprintf("%s[%d]", prefix, i), e, out)
		}
	default:
		out[prefix] = v
	}
}

// leafKey strips the path down to the metric's own field name.
func leafKey(path string) string {
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		path = path[i+1:]
	}
	return path
}

// compareMetric applies the tolerance table to one metric; it returns
// the rule that matched, or an error describing the violation. The rules
// are checked in documented order, so a key like a_over_b_allocs
// is a ratio (rule 1) before it is an alloc count (rule 2).
func compareMetric(key string, old, fresh any) (string, error) {
	ov, oldNum := old.(float64)
	nv, newNum := fresh.(float64)
	if !oldNum || !newNum {
		if old != fresh {
			return "", fmt.Errorf("changed: %v -> %v", old, fresh)
		}
		return "exact", nil
	}
	switch {
	case strings.Contains(key, "_over_") || strings.Contains(key, "speedup"):
		return ratioWithin(ov, nv, 3)
	case strings.Contains(key, "allocs"):
		if nv > ov*1.5 {
			return "", fmt.Errorf("allocations grew %.0f -> %.0f (> 1.5x)", ov, nv)
		}
		return "allocs 1.5x", nil
	case key != "sim_seconds" && (strings.HasSuffix(key, "ns_per_op") || strings.HasSuffix(key, "_seconds")):
		return ratioWithin(ov, nv, 10)
	default:
		if ov != nv {
			return "", fmt.Errorf("changed: %v -> %v (deterministic metric, must match exactly)", old, fresh)
		}
		return "exact", nil
	}
}

// ratioWithin accepts fresh values within a factor of the snapshot in
// either direction.
func ratioWithin(old, fresh, factor float64) (string, error) {
	rule := fmt.Sprintf("ratio %.0fx", factor)
	if old == 0 || fresh == 0 {
		if old != fresh {
			return "", fmt.Errorf("changed: %v -> %v (zero baseline needs an exact match)", old, fresh)
		}
		return rule, nil
	}
	if (old > 0) != (fresh > 0) {
		return "", fmt.Errorf("sign flipped: %v -> %v", old, fresh)
	}
	r := fresh / old
	if r > factor || r < 1/factor {
		return "", fmt.Errorf("moved %.4gx (%v -> %v), tolerance %.0fx", r, old, fresh, factor)
	}
	return rule, nil
}
