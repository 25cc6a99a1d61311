package ir

import (
	"fmt"
	"math"

	"commopt/internal/grid"
	"commopt/internal/zpl"
)

// Setup is a program's static state on one mesh: what the runtime builds
// before any processor runs and the cost predictor before it walks.
type Setup struct {
	Vals    []float64     // by ScalarSym.ID: configs and constants evaluated, zero for every other scalar
	Regions []grid.Region // by RegionSym.ID
	Master  [2]grid.Span  // the spans that anchor the block distribution
}

// Setup evaluates the configs, overriding defaults by name from vars, then
// the constants and the declared regions, in declaration order, so each
// may read the ones before it (Lower admits nothing else). It anchors the
// block distribution and checks that every ghost region fits inside the
// smallest block of mesh. Errors carry no package prefix: callers add
// their own. A region whose bounds are not integers or that is empty is a
// *zpl.Error at the region's declaration.
func (p *Program) Setup(vars map[string]float64, mesh grid.Mesh) (*Setup, error) {
	s := &Setup{Vals: make([]float64, len(p.Scalars)), Regions: make([]grid.Region, len(p.Regions))}
	for _, c := range p.Configs {
		v, ok := vars[c.Name]
		if !ok {
			v = Eval(c.Init, s.Vals)
		}
		s.Vals[c.ID] = v
	}
	for name := range vars {
		if p.LookupConfig(name) == nil {
			return nil, fmt.Errorf("program has no config variable %q", name)
		}
	}
	for _, c := range p.Consts {
		s.Vals[c.ID] = Eval(c.Init, s.Vals)
	}

	for _, r := range p.Regions {
		spans := make([]grid.Span, r.RankN)
		for d := range spans {
			lo, hi := Eval(r.Bounds[d][0], s.Vals), Eval(r.Bounds[d][1], s.Vals)
			if lo != math.Trunc(lo) || hi != math.Trunc(hi) {
				return nil, zpl.Errorf(r.Pos, "region %s: non-integer bounds %g..%g", r.Name, lo, hi)
			}
			spans[d] = grid.Span{Lo: int(lo), Hi: int(hi)}
		}
		reg := grid.NewRegion(r.RankN, spans...)
		if reg.Empty() {
			return nil, zpl.Errorf(r.Pos, "region %s is empty: %v", r.Name, reg)
		}
		s.Regions[r.ID] = reg
	}

	// The first declared region of rank >= 2 anchors the distribution in
	// both distributed dimensions (ZPL's trivial alignment); a rank-1 first
	// region anchors dimension 0 only.
	if len(p.Regions) == 0 {
		return nil, fmt.Errorf("program declares no regions")
	}
	s.Master = [2]grid.Span{s.Regions[0].Spans[0], {Lo: 1, Hi: 1}}
	for _, r := range p.Regions {
		if r.RankN >= 2 {
			s.Master = [2]grid.Span{s.Regions[r.ID].Spans[0], s.Regions[r.ID].Spans[1]}
			break
		}
	}

	maxGhost := 0
	for _, a := range p.Arrays {
		maxGhost = max(maxGhost, a.Ghost)
	}
	minBlock := s.Master[0].Len() / mesh.Rows
	if c := s.Master[1].Len() / mesh.Cols; mesh.Cols > 1 && c < minBlock {
		minBlock = c
	}
	if maxGhost > 0 && minBlock < maxGhost {
		return nil, fmt.Errorf("%d processors partition the %dx%d problem as a %s mesh, leaving blocks %d wide — smaller than the %d-wide ghost region; use fewer processors or a larger problem",
			mesh.Size(), s.Master[0].Len(), s.Master[1].Len(), mesh, minBlock, maxGhost)
	}
	return s, nil
}
