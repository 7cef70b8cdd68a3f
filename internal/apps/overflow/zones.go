// Package overflow is a compact stand-in for NASA's OVERFLOW-2
// (Section 3.7.1): a multi-zone, overset-structured-grid implicit solver,
// parallelized hybrid MPI+OpenMP — the paper's bandwidth-bound production
// application (Figures 22 and 23).
//
// The package has two layers, like the rest of this repository:
//
//   - a real solver (solver.go): an implicit ADI diffusion solver over a
//     chain of structured zones coupled by overset-style interpolated
//     ghost planes, runnable serially, with OpenMP teams, and as a true
//     MPI program over simmpi ranks;
//   - performance drivers (driver.go) that regenerate Figure 22 (native
//     host/Phi (MPI ranks x OpenMP threads) sweeps on DLRF6-Medium) and
//     Figure 23 (symmetric host+Phi0+Phi1 on DLRF6-Large, pre- vs
//     post-update software).
package overflow

import (
	"fmt"

	"maia/internal/vclock"
)

// Zone is one overset structured grid.
type Zone struct {
	ID     int
	Points int64
}

// Dataset is a named multi-zone grid system.
type Dataset struct {
	Name  string
	Zones []Zone
}

// TotalPoints sums the zone sizes.
func (d Dataset) TotalPoints() int64 {
	var t int64
	for _, z := range d.Zones {
		t += z.Points
	}
	return t
}

// synthesize builds a deterministic zone-size distribution: overset
// systems have a few large near-body grids and many smaller ones, which
// a squared-uniform draw imitates.
func synthesize(name string, zones int, totalPoints int64, seed uint64) Dataset {
	rng := vclock.NewRNG(seed)
	weights := make([]float64, zones)
	sum := 0.0
	for i := range weights {
		u := 0.15 + rng.Float64()
		weights[i] = u * u
		sum += weights[i]
	}
	d := Dataset{Name: name}
	var assigned int64
	for i, w := range weights {
		pts := int64(w / sum * float64(totalPoints))
		if i == zones-1 {
			pts = totalPoints - assigned
		}
		if pts < 1 {
			pts = 1
		}
		assigned += pts
		d.Zones = append(d.Zones, Zone{ID: i, Points: pts})
	}
	return d
}

// DLRF6Large returns the paper's wing-body-nacelle-pylon case: 23 zones,
// 35.9 million grid points (too large for a single Phi's 8 GB).
func DLRF6Large() Dataset { return synthesize("DLRF6-Large", 23, 35_900_000, 23) }

// DLRF6Medium returns the reduced case used for single-device runs:
// 10.8 million grid points.
func DLRF6Medium() Dataset { return synthesize("DLRF6-Medium", 17, 10_800_000, 17) }

// Piece is a (possibly split) fragment of a zone assigned to one rank.
type Piece struct {
	Zone   int
	Points int64
}

// Decompose assigns the dataset to ranks proportionally to the given
// speeds (relative rank throughputs), splitting zones that exceed a
// rank's remaining target — OVERFLOW's group/split load balancing, and
// the "challenge" the paper highlights for symmetric mode. It returns
// the per-rank piece lists.
func Decompose(d Dataset, speeds []float64) ([][]Piece, error) {
	r := len(speeds)
	if r == 0 {
		return nil, fmt.Errorf("overflow: no ranks")
	}
	totalSpeed := 0.0
	for i, s := range speeds {
		if s <= 0 {
			return nil, fmt.Errorf("overflow: rank %d has non-positive speed %v", i, s)
		}
		totalSpeed += s
	}
	total := float64(d.TotalPoints())
	targets := make([]float64, r)
	for i, s := range speeds {
		targets[i] = total * s / totalSpeed
	}

	// Longest-processing-time with splitting: zones are placed largest
	// first onto the rank with the biggest remaining deficit, splitting a
	// zone when it overfills the rank. OVERFLOW's splitter follows grid
	// planes, so a piece is never smaller than a twelfth of its zone —
	// the granularity that leaves residual imbalance when targets are
	// uneven (Section 6.9.1.3's "overhead due to load imbalance").
	order := make([]int, len(d.Zones))
	for i := range order {
		order[i] = i
	}
	for a := 1; a < len(order); a++ {
		for b := a; b > 0 && d.Zones[order[b]].Points > d.Zones[order[b-1]].Points; b-- {
			order[b], order[b-1] = order[b-1], order[b]
		}
	}
	out := make([][]Piece, r)
	loads := make([]float64, r)
	mostUnderloaded := func() int {
		best, bestDef := 0, loads[0]-targets[0]
		for i := 1; i < r; i++ {
			if def := loads[i] - targets[i]; def < bestDef {
				best, bestDef = i, def
			}
		}
		return best
	}
	for _, zi := range order {
		z := d.Zones[zi]
		minPiece := z.Points / 12
		if minPiece < 1 {
			minPiece = 1
		}
		remaining := z.Points
		for remaining > 0 {
			rank := mostUnderloaded()
			take := int64(targets[rank] - loads[rank])
			if take < minPiece {
				take = minPiece
			}
			if take > remaining {
				take = remaining
			}
			if rem := remaining - take; rem > 0 && rem < minPiece {
				take = remaining // no illegal slivers
			}
			out[rank] = append(out[rank], Piece{Zone: z.ID, Points: take})
			loads[rank] += float64(take)
			remaining -= take
		}
	}
	return out, nil
}

// Load returns the total points of a piece list.
func Load(pieces []Piece) int64 {
	var t int64
	for _, p := range pieces {
		t += p.Points
	}
	return t
}
