package cost

import (
	"fmt"

	"commopt/internal/grid"
	"commopt/internal/ir"
)

// layout is the program's setup on the prediction's mesh — ir's, the one
// the runtime builds, so a program rt.Run would reject at setup is
// rejected here and one it accepts distributes identically — plus the
// block ownership the walk prices transfers with.
type layout struct {
	*ir.Setup
	mesh grid.Mesh
}

func newLayout(prog *ir.Program, cfg Config) (*layout, error) {
	mesh, err := grid.MeshFor(cfg.Procs)
	if err != nil {
		return nil, fmt.Errorf("cost: %w", err)
	}
	s, err := prog.Setup(cfg.ConfigVars, mesh)
	if err != nil {
		return nil, fmt.Errorf("cost: %w", err)
	}
	return &layout{Setup: s, mesh: mesh}, nil
}

// localSpan intersects a declared span with the indices owned by block b
// of p in one dimension (edge blocks absorb indices outside the master
// span).
func localSpan(master, declared grid.Span, p, b int) grid.Span {
	bs := grid.BlockSpan(master.Len(), p, b)
	lo := master.Lo + bs.Lo - 1
	hi := master.Lo + bs.Hi - 1
	if bs.Empty() {
		return grid.Span{Lo: 1, Hi: 0}
	}
	if b == 0 {
		lo = declared.Lo
	}
	if b == p-1 {
		hi = declared.Hi
	}
	return grid.Span{Lo: lo, Hi: hi}.Intersect(declared)
}

// localRegion returns the sub-region of reg owned by the processor at
// mesh position (row, col).
func (l *layout) localRegion(reg grid.Region, row, col int) grid.Region {
	out := reg
	out.Spans[0] = localSpan(l.Master[0], reg.Spans[0], l.mesh.Rows, row)
	if reg.Rank >= 2 {
		out.Spans[1] = localSpan(l.Master[1], reg.Spans[1], l.mesh.Cols, col)
	} else if col != 0 {
		out.Spans[0] = grid.Span{Lo: 1, Hi: 0} // rank-1 data lives on column 0
	}
	return out
}
