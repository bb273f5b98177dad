package core

import (
	"math/rand"
	"testing"

	"middlewhere/internal/building"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/spatialdb"
)

// symbolicRegionRef is the slow, obviously right form symbolicRegion
// replaced: clone every intersecting object, sort by ID, and keep the
// first strictly deeper containing region. It also reports whether the
// answer needed the ID tie rule (two containing regions at the winning
// depth).
func symbolicRegionRef(db *spatialdb.DB, r geom.Rect) (best glob.GLOB, tie bool) {
	bestDepth := -1
	for _, o := range db.IntersectingObjects(r, spatialdb.ObjectFilter{}) {
		switch o.Type {
		case "Room", "Corridor", "Floor":
		default:
			continue
		}
		if !o.Bounds.ContainsRect(r) && !o.Bounds.ContainsPoint(r.Center()) {
			continue
		}
		switch d := o.GLOB.Depth(); {
		case d > bestDepth:
			best, bestDepth, tie = o.GLOB, d, false
		case d == bestDepth:
			tie = true
		}
	}
	return best, tie
}

// TestSymbolicRegionMatchesReference compares the clone-free
// symbolicRegion with the reference on seeded random rectangles over
// the paper floor and a three-storey synthetic building. Half the
// rectangles are centred on a wall or corner coordinate, so the centre
// lies in two or four regions of equal depth and the lowest-ID rule
// decides.
func TestSymbolicRegionMatchesReference(t *testing.T) {
	for _, bld := range []*building.Building{
		building.PaperFloor(),
		building.MultiStorey("MS", 3, 3, 4, 20, 15, 8),
	} {
		t.Run(bld.Name, func(t *testing.T) {
			s, err := New(bld)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var xs, ys []float64
			for _, o := range s.db.Objects() {
				xs = append(xs, o.Bounds.Min.X, o.Bounds.Max.X)
				ys = append(ys, o.Bounds.Min.Y, o.Bounds.Max.Y)
			}
			u := s.db.Universe()
			rng := rand.New(rand.NewSource(38))
			ties, named := 0, 0
			for i := 0; i < 3000; i++ {
				c := geom.Pt(u.Min.X+rng.Float64()*u.Width(), u.Min.Y+rng.Float64()*u.Height())
				if i%2 == 0 {
					c = geom.Pt(xs[rng.Intn(len(xs))], ys[rng.Intn(len(ys))])
				}
				hw, hh := rng.ExpFloat64()*4, rng.ExpFloat64()*4
				if i%5 == 0 {
					hw, hh = 0, 0 // a point estimate
				}
				r := geom.R(c.X-hw, c.Y-hh, c.X+hw, c.Y+hh)
				want, tie := symbolicRegionRef(s.db, r)
				if got := s.symbolicRegion(r); !got.Equal(want) {
					t.Fatalf("symbolicRegion(%v) = %q, reference %q", r, got, want)
				}
				if tie {
					ties++
				}
				if !want.IsZero() {
					named++
				}
			}
			if ties < 100 || named < 1000 {
				t.Fatalf("weak coverage: %d depth ties, %d named answers of 3000", ties, named)
			}
		})
	}
}
