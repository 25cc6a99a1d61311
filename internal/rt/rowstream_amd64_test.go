package rt

import (
	"fmt"
	"testing"
)

// BenchmarkRowStreams prices a kernel's passes over memory apart from
// everything else a run does: the measurement behind what EXPERIMENTS.md
// ("Wide rows") says strip-mining and the store stream are worth, which
// ROADMAP's kernel item rests on. Blocks are 512 x 512 doubles (2 MB), the
// size swm n = 1024 has on a 2 x 2 mesh, and every sub-benchmark cycles
// through 16 of them (32 MB), so no block is still cached when its turn
// comes again; ns/op is per block.
//
//   - read: one pass that streams a block in and writes an L1-resident row.
//   - write: one pass that reads L1-resident rows and streams a block out.
//   - stmt/chunk=N: swm's Z statement — nine passes, six of them into
//     temporaries — with the temporaries N doubles long. 512 is a kernel
//     today (whole rows); 128 and 64 are what a strip-mined tape would do.
//
// Each runs in the wide loops and, as .../go, in the Go loops.
func BenchmarkRowStreams(b *testing.B) {
	const side, blocks = 512, 16
	mem := make([][]float64, blocks)
	for i := range mem {
		mem[i] = make([]float64, side*side)
		for j := range mem[i] {
			mem[i][j] = float64(j%97) + 1.5
		}
	}
	add, sub, mul, div := rowOp{kind: opAdd}, rowOp{kind: opSub}, rowOp{kind: opMul}, rowOp{kind: opDiv}
	t1, t2 := make([]float64, side), make([]float64, side)
	row := func(blk, r, lo, hi int) []float64 { return mem[blk%blocks][r*side+lo : r*side+hi] }

	passes := map[string]func(i int){
		"read": func(i int) {
			for r := 0; r < side; r++ {
				binRow(add, t1, row(i, r, 0, side), t2)
			}
		},
		"write": func(i int) {
			for r := 0; r < side; r++ {
				binRow(add, row(i, r, 0, side), t1, t2)
			}
		},
	}
	for _, chunk := range []int{512, 128, 64} {
		// Z := (a*(V - V@w) - b*(U - U@s)) / (P@sw + P@s + P + P@w), as the
		// tree compiler orders it: left operands into dst, right ones into slots.
		passes[fmt.Sprintf("stmt/chunk=%d", chunk)] = func(i int) {
			z, v, u, p := i, i+1, i+2, i+3
			for r := 1; r < side; r++ {
				for lo := 1; lo < side; lo += chunk {
					hi := min(lo+chunk, side)
					dst, a, c := row(z, r, lo, hi), t1[:hi-lo], t2[:hi-lo]
					binRow(sub, dst, row(v, r, lo, hi), row(v, r, lo-1, hi-1))
					scalarRow(mul, dst, 0.25, dst)
					binRow(sub, a, row(u, r, lo, hi), row(u, r-1, lo, hi))
					scalarRow(mul, a, 0.75, a)
					binRow(sub, dst, dst, a)
					binRow(add, c, row(p, r-1, lo-1, hi-1), row(p, r-1, lo, hi))
					binRow(add, c, c, row(p, r, lo, hi))
					binRow(add, c, c, row(p, r, lo-1, hi-1))
					binRow(div, dst, dst, c)
				}
			}
		}
	}
	for _, name := range []string{"read", "write", "stmt/chunk=512", "stmt/chunk=128", "stmt/chunk=64"} {
		for _, loops := range []string{"wide", "go"} {
			b.Run(name+"/"+loops, func(b *testing.B) {
				body := func() {
					for i := 0; i < b.N; i++ {
						passes[name](i * 4)
					}
				}
				if loops == "go" {
					goLoops(body)
				} else {
					body()
				}
			})
		}
	}
}
