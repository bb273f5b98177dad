package coords

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"middlewhere/internal/geom"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

func pointsClose(a, b geom.Point) bool {
	return almostEq(a.X, b.X) && almostEq(a.Y, b.Y)
}

// buildingTree builds SC -> SC/3 -> {SC/3/3216, SC/3/3105} with simple
// translations, plus a rotated room SC/3/lab.
func buildingTree(t *testing.T) *Tree {
	t.Helper()
	tr := NewTree()
	if err := tr.AddRoot("SC"); err != nil {
		t.Fatal(err)
	}
	// Floor 3's origin sits at (0, 100) in building coordinates.
	if err := tr.AddFrame("SC/3", "SC", Transform{Origin: geom.Pt(0, 100), Scale: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddFrame("SC/3/3216", "SC/3", Transform{Origin: geom.Pt(45, 12), Scale: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddFrame("SC/3/3105", "SC/3", Transform{Origin: geom.Pt(330, 0), Scale: 1}); err != nil {
		t.Fatal(err)
	}
	// A room rotated 90 degrees CCW relative to the floor.
	if err := tr.AddFrame("SC/3/lab", "SC/3", Transform{Origin: geom.Pt(10, 10), Theta: math.Pi / 2, Scale: 1}); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTransformApplyInvert(t *testing.T) {
	tf := Transform{Origin: geom.Pt(5, -3), Theta: math.Pi / 6, Scale: 2}
	p := geom.Pt(1.5, 2.25)
	round := tf.Invert(tf.Apply(p))
	if !pointsClose(round, p) {
		t.Errorf("Invert(Apply(p)) = %v, want %v", round, p)
	}
}

func TestZeroTransformIsIdentityScale(t *testing.T) {
	var tf Transform // Scale 0 must behave as 1
	p := geom.Pt(3, 4)
	if got := tf.Apply(p); !pointsClose(got, p) {
		t.Errorf("zero transform Apply = %v", got)
	}
	if got := tf.Invert(p); !pointsClose(got, p) {
		t.Errorf("zero transform Invert = %v", got)
	}
}

func TestConvertUpAndDown(t *testing.T) {
	tr := buildingTree(t)
	tests := []struct {
		name     string
		give     geom.Point
		from, to string
		want     geom.Point
	}{
		{"room to floor", geom.Pt(1, 2), "SC/3/3216", "SC/3", geom.Pt(46, 14)},
		{"room to building", geom.Pt(1, 2), "SC/3/3216", "SC", geom.Pt(46, 114)},
		{"floor to room", geom.Pt(46, 14), "SC/3", "SC/3/3216", geom.Pt(1, 2)},
		{"room to sibling room", geom.Pt(0, 0), "SC/3/3216", "SC/3/3105", geom.Pt(-285, 12)},
		{"same frame", geom.Pt(7, 8), "SC/3", "SC/3", geom.Pt(7, 8)},
		{"rotated room to floor", geom.Pt(1, 0), "SC/3/lab", "SC/3", geom.Pt(10, 11)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tr.Convert(tt.give, tt.from, tt.to)
			if err != nil {
				t.Fatalf("Convert: %v", err)
			}
			if !pointsClose(got, tt.want) {
				t.Errorf("Convert = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestConvertRoundTripEverywhere(t *testing.T) {
	tr := buildingTree(t)
	frames := []string{"SC", "SC/3", "SC/3/3216", "SC/3/3105", "SC/3/lab"}
	p := geom.Pt(3.5, -1.25)
	for _, from := range frames {
		for _, to := range frames {
			got, err := tr.Convert(p, from, to)
			if err != nil {
				t.Fatalf("Convert %s->%s: %v", from, to, err)
			}
			back, err := tr.Convert(got, to, from)
			if err != nil {
				t.Fatalf("Convert back %s->%s: %v", to, from, err)
			}
			if !pointsClose(back, p) {
				t.Errorf("%s->%s->%s = %v, want %v", from, to, from, back, p)
			}
		}
	}
}

func TestConvertErrors(t *testing.T) {
	tr := buildingTree(t)
	if _, err := tr.Convert(geom.Pt(0, 0), "nope", "SC"); !errors.Is(err, ErrUnknownFrame) {
		t.Errorf("unknown from: %v", err)
	}
	if _, err := tr.Convert(geom.Pt(0, 0), "SC", "nope"); !errors.Is(err, ErrUnknownFrame) {
		t.Errorf("unknown to: %v", err)
	}
	if _, err := tr.Convert(geom.Pt(0, 0), "nope", "nope"); !errors.Is(err, ErrUnknownFrame) {
		t.Errorf("unknown same: %v", err)
	}
	if err := tr.AddRoot("Other"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Convert(geom.Pt(0, 0), "Other", "SC"); !errors.Is(err, ErrNoCommonRoot) {
		t.Errorf("different roots: %v", err)
	}
}

func TestAddErrors(t *testing.T) {
	tr := NewTree()
	if err := tr.AddRoot("SC"); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddRoot("SC"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate root: %v", err)
	}
	if err := tr.AddFrame("SC/9", "missing", Identity); !errors.Is(err, ErrUnknownFrame) {
		t.Errorf("missing parent: %v", err)
	}
	if err := tr.AddFrame("x", "", Identity); err == nil {
		t.Error("AddFrame with empty parent should fail")
	}
	if err := tr.AddRoot(""); err == nil {
		t.Error("empty name should fail")
	}
}

func TestQuickTransformRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		_ = seed
		tf := Transform{
			Origin: geom.Pt(rng.Float64()*200-100, rng.Float64()*200-100),
			Theta:  rng.Float64() * 2 * math.Pi,
			Scale:  0.25 + rng.Float64()*4,
		}
		p := geom.Pt(rng.Float64()*100-50, rng.Float64()*100-50)
		got := tf.Invert(tf.Apply(p))
		return math.Abs(got.X-p.X) < 1e-6 && math.Abs(got.Y-p.Y) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickConvertTransitivity(t *testing.T) {
	// Converting A->B->C equals converting A->C directly.
	tr := NewTree()
	if err := tr.AddRoot("B"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tr.AddFrame("B/f", "B", Transform{Origin: geom.Pt(10, 20), Theta: 0.3, Scale: 1.5}))
	must(tr.AddFrame("B/f/r1", "B/f", Transform{Origin: geom.Pt(-4, 2), Theta: 1.1, Scale: 0.5}))
	must(tr.AddFrame("B/f/r2", "B/f", Transform{Origin: geom.Pt(6, -3), Theta: 2.2, Scale: 2}))

	f := func(seed int64) bool {
		_ = seed
		p := geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10)
		via, err := tr.Convert(p, "B/f/r1", "B/f")
		if err != nil {
			return false
		}
		via, err = tr.Convert(via, "B/f", "B/f/r2")
		if err != nil {
			return false
		}
		direct, err := tr.Convert(p, "B/f/r1", "B/f/r2")
		if err != nil {
			return false
		}
		return math.Abs(via.X-direct.X) < 1e-6 && math.Abs(via.Y-direct.Y) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRouteMatchesConvert: a frame's Route is Convert's step-by-step
// chain to the root, so the two agree bit for bit on random frame trees
// (up to four levels under two roots, random origin, rotation and
// scale, zero scale included). A failure names the seed that builds the
// tree.
func TestRouteMatchesConvert(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree()
		type node struct {
			name, root string
			depth      int
		}
		var nodes []node
		for _, root := range []string{"A", "B"} {
			if err := tr.AddRoot(root); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, node{root, root, 1})
		}
		for i := 0; i < 12; i++ {
			parent := nodes[rng.Intn(len(nodes))]
			if parent.depth == 4 {
				continue
			}
			tf := Transform{
				Origin: geom.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000),
				Theta:  rng.Float64()*4*math.Pi - 2*math.Pi,
				Scale:  rng.Float64() * 3,
			}
			if rng.Intn(8) == 0 {
				tf.Scale = 0
			}
			name := fmt.Sprintf("%s/%d", parent.name, i)
			if err := tr.AddFrame(name, parent.name, tf); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, node{name, parent.root, parent.depth + 1})
		}
		routes := tr.Routes()
		if len(routes) != len(nodes) {
			t.Fatalf("seed %d: %d routes for %d frames", seed, len(routes), len(nodes))
		}
		for _, n := range nodes {
			for k := 0; k < 4; k++ {
				p := geom.Pt(rng.Float64()*200-100, rng.Float64()*200-100)
				want, err := tr.Convert(p, n.name, n.root)
				if err != nil {
					t.Fatalf("seed %d: Convert %s: %v", seed, n.name, err)
				}
				if got := routes[n.name].Apply(p); got != want {
					t.Fatalf("seed %d: frame %s (depth %d): Route.Apply(%v) = %v, Convert = %v",
						seed, n.name, n.depth, p, got, want)
				}
			}
		}
	}
}
