package main

import (
	"fmt"
	"math"
	"strings"

	"commopt/internal/cost"
	"commopt/internal/grid"
	"commopt/internal/rt"
)

// arrayTol is how far a parallel run's array element may sit from the
// one-processor reference.
const arrayTol = 1e-9

// checker counts checks. Each check is one op; a run that errors fails
// every check it would have made.
type checker struct {
	ops, failed int
	failures    []string // the first few, for the report
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.ops++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// failN records n failed checks for a run that did not produce a result.
func (c *checker) failN(n int, format string, args ...any) {
	for i := 0; i < n; i++ {
		c.check(false, format, args...)
	}
}

// refArray is one array of a reference run, copied out element by element
// so the harness owns the values it checks against.
type refArray struct {
	name string
	reg  grid.Region
	data []float64 // row-major over reg
}

// reference is the gathered state of a one-processor comm.Baseline() run:
// no optimizer, no IRONMAN traffic, no scheduler contention, no
// collective hops.
type reference struct {
	arrays      []refArray
	elems, nans int // how much of the reference is NaN: such elements only check that the run has a NaN there too
}

func arrayNames(res *rt.Result) []string { return strings.Fields(res.DumpArrays()) }

// forEach visits the points of reg in row-major order.
func forEach(reg grid.Region, f func(i, j, k int)) {
	s := reg.Spans
	for i := s[0].Lo; i <= s[0].Hi; i++ {
		for j := s[1].Lo; j <= s[1].Hi; j++ {
			for k := s[2].Lo; k <= s[2].Hi; k++ {
				f(i, j, k)
			}
		}
	}
}

func newReference(res *rt.Result) *reference {
	ref := &reference{}
	for _, name := range arrayNames(res) {
		d := res.Array(name)
		a := refArray{name: name, reg: d.Reg, data: make([]float64, 0, d.Reg.Size())}
		forEach(d.Reg, func(i, j, k int) {
			v := d.At(i, j, k)
			a.data = append(a.data, v)
			ref.elems++
			if v != v {
				ref.nans++
			}
		})
		ref.arrays = append(ref.arrays, a)
	}
	return ref
}

// checkArrays makes one check per reference array: same region, every
// element within arrayTol (a NaN on one side only fails). It returns a hash
// of the result's bits, equal for two runs exactly when every array is
// bit-identical.
func (c *checker) checkArrays(label string, res *rt.Result, ref *reference) uint64 {
	hash := uint64(14695981039346656037) // FNV-1a, one 64-bit word at a time
	for _, a := range ref.arrays {
		d := res.Array(a.name)
		if d == nil || d.Reg != a.reg {
			c.check(false, "%s: array %s missing or of another shape", label, a.name)
			continue
		}
		worst, n := 0.0, 0
		forEach(a.reg, func(i, j, k int) {
			v, want := d.At(i, j, k), a.data[n]
			n++
			if bothNaN := v != v && want != want; !bothNaN {
				if diff := math.Abs(v - want); diff > worst || diff != diff {
					worst = diff // a NaN latches: nothing compares greater than it
				}
			}
			hash = (hash ^ math.Float64bits(v)) * 1099511628211
		})
		c.check(worst <= arrayTol, "%s: array %s differs from the 1-processor reference by %g", label, a.name, worst)
	}
	return hash
}

// checkConservation makes one check: on every rank Compute+Comm+Wait is
// the rank's finish time, and the latest finish is the run's time.
func (c *checker) checkConservation(label string, res *rt.Result) {
	ok := len(res.PerProc) > 0
	var latest rt.Breakdown
	for _, b := range res.PerProc {
		if b.Total() != b.Finish {
			ok = false
		}
		if b.Finish > latest.Finish {
			latest = b
		}
	}
	c.check(ok && latest.Finish == res.ExecTime, "%s: Compute+Comm+Wait != finish on some rank", label)
}

// predictionMatches reports whether the closed-form forecast equals the
// run: message, byte, transfer and reduction counts, and every rank's
// communication time.
func predictionMatches(pred *cost.Prediction, res *rt.Result) bool {
	if pred.Messages != res.Messages || pred.BytesSent != res.BytesSent ||
		pred.DynamicTransfers != res.DynamicTransfers || pred.Reductions != res.Reductions ||
		len(pred.PerProcComm) != len(res.PerProc) {
		return false
	}
	for r, b := range res.PerProc {
		if pred.PerProcComm[r] != b.Comm {
			return false
		}
	}
	return true
}

// leaf is the simulated outcome of one run; it repeats exactly.
type leaf struct {
	sim      int64 // ExecTime, virtual ns
	messages int
	bytes    int64
	dynamic  int
}

func leafOf(res *rt.Result) leaf {
	return leaf{int64(res.ExecTime), res.Messages, res.BytesSent, res.DynamicTransfers}
}
