// Package programs holds the benchmark suite: the paper's four data
// parallel programs (TOMCATV, SWM, SIMPLE, SP) rewritten in the ZPL
// subset, plus the synthetic two-node overhead microbenchmark of
// Section 3.2. Each program preserves the communication structure that
// drives the paper's results: where redundancy lives, which transfers
// share offsets (combinable), how much computation separates sends from
// uses (pipelinable), and which phases serialize (tridiagonal wavefronts).
package programs

import (
	_ "embed"
	"fmt"
	"os"
)

//go:embed src/tomcatv.zpl
var tomcatvSrc string

//go:embed src/swm.zpl
var swmSrc string

//go:embed src/simple.zpl
var simpleSrc string

//go:embed src/sp.zpl
var spSrc string

// Benchmark describes one suite entry.
type Benchmark struct {
	Name        string
	Description string // as in Figure 7
	Source      string

	// PaperConfig reproduces the paper's problem size; the iteration
	// counts are chosen so a simulated run completes in seconds while
	// keeping the per-iteration steady state that fixes every ratio.
	PaperConfig map[string]float64
	// CalibConfig is a reduced size that preserves the orderings the
	// calibration tests assert, at a fraction of the cost.
	CalibConfig map[string]float64
	// TestConfig is a miniature size for fast correctness tests.
	TestConfig map[string]float64

	// PaperLineCount is Figure 7's generated-C line count, for reference.
	PaperLineCount int
	// Serialized marks programs with inherently sequential phases
	// (tridiagonal wavefronts) that the prototype SHMEM binding penalizes.
	Serialized bool
}

// Suite returns the four benchmarks in the paper's order.
func Suite() []Benchmark {
	return []Benchmark{
		{
			Name:           "tomcatv",
			Description:    "Thompson solver and grid generation (SPEC)",
			Source:         tomcatvSrc,
			PaperConfig:    map[string]float64{"n": 128, "iters": 40},
			CalibConfig:    map[string]float64{"n": 64, "iters": 6},
			TestConfig:     map[string]float64{"n": 24, "iters": 2},
			PaperLineCount: 598,
			Serialized:     true,
		},
		{
			Name:           "swm",
			Description:    "Weather prediction (shallow water model)",
			Source:         swmSrc,
			PaperConfig:    map[string]float64{"n": 512, "iters": 24},
			CalibConfig:    map[string]float64{"n": 128, "iters": 6},
			TestConfig:     map[string]float64{"n": 24, "iters": 3},
			PaperLineCount: 1570,
		},
		{
			Name:           "simple",
			Description:    "Hydrodynamics simulation (Livermore Labs)",
			Source:         simpleSrc,
			PaperConfig:    map[string]float64{"n": 256, "iters": 20},
			CalibConfig:    map[string]float64{"n": 96, "iters": 5},
			TestConfig:     map[string]float64{"n": 24, "iters": 2},
			PaperLineCount: 2293,
		},
		{
			Name:           "sp",
			Description:    "CFD computation (NAS Application Benchmarks)",
			Source:         spSrc,
			PaperConfig:    map[string]float64{"n": 16, "nz": 16, "iters": 60},
			CalibConfig:    map[string]float64{"n": 16, "nz": 16, "iters": 10},
			TestConfig:     map[string]float64{"n": 16, "nz": 8, "iters": 2},
			PaperLineCount: 7866,
			Serialized:     true,
		},
	}
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, error) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("programs: unknown benchmark %q", name)
}

// Input is one program text and the name its diagnostics carry: a file's
// path or a benchmark's name.
type Input struct {
	Name, Source string
}

// Load reads a command's inputs: every named file, then the bundled
// benchmark bench names ("all" names the whole suite, "" none).
func Load(bench string, files []string) ([]Input, error) {
	var ins []Input
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		ins = append(ins, Input{f, string(data)})
	}
	switch bench {
	case "":
	case "all":
		for _, b := range Suite() {
			ins = append(ins, Input{b.Name, b.Source})
		}
	default:
		b, err := ByName(bench)
		if err != nil {
			return nil, err
		}
		ins = append(ins, Input{b.Name, b.Source})
	}
	return ins, nil
}
