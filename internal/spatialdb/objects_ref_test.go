package spatialdb_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"middlewhere/internal/building"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/spatialdb"
)

// TestObjectQueriesMatchLinearScan checks every object query on a
// three-storey building against the obviously-right reference: a
// linear scan of Objects(), filtered and sorted the way each query
// documents. Points and rectangle corners are snapped to a 2 m grid,
// so a probe often lies on a room edge or inside a floor and a room at
// once: many objects tie at the k-th distance of a Nearest, and the
// (distance, ID) order must break every tie.
func TestObjectQueriesMatchLinearScan(t *testing.T) {
	b := building.MultiStorey("City", 3, 2, 4, 10, 8, 4)
	db, err := b.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	// Displays on grid points, half with power outlets, so the
	// property filter and point geometry are covered too.
	for k := 0; k < 3; k++ {
		for j := 0; j < 4; j++ {
			power := "no"
			if j%2 == 0 {
				power = "yes"
			}
			err := db.InsertObject(spatialdb.Object{
				GLOB: glob.MustParse(fmt.Sprintf("City/F%d/d%d", k, j)), Type: building.TypeDisplay,
				Kind: glob.KindPoint, LocalPoints: []geom.Point{geom.Pt(float64(10*j), 8)},
				Properties: map[string]string{"power-outlets": power},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	all := db.Objects()
	u := db.Universe()
	rng := rand.New(rand.NewSource(48))
	snap := func(lo, hi float64) float64 {
		return 2 * float64(int(lo/2)+rng.Intn(int((hi-lo)/2)+1))
	}
	point := func() geom.Point {
		return geom.Pt(snap(u.Min.X-4, u.Max.X+4), snap(u.Min.Y-4, u.Max.Y+4))
	}
	filters := []spatialdb.ObjectFilter{
		{},
		{Type: building.TypeRoom},
		{Type: building.TypeCorridor},
		{Properties: map[string]string{"power-outlets": "yes"}},
		{Prefix: glob.MustParse("City/F1")},
	}
	ids := func(os []spatialdb.Object) string {
		s := make([]string, len(os))
		for i, o := range os {
			s[i] = o.ID()
		}
		return strings.Join(s, " ")
	}
	scan := func(keep func(o spatialdb.Object) bool, f spatialdb.ObjectFilter, less func(a, b spatialdb.Object) bool) []spatialdb.Object {
		var out []spatialdb.Object
		for _, o := range all {
			if keep(o) && matches(f, o) {
				out = append(out, o)
			}
		}
		sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
		return out
	}
	byID := func(a, b spatialdb.Object) bool { return a.ID() < b.ID() }

	const queries = 2000
	bad := 0
	report := func(what string, got, want []spatialdb.Object) {
		if ids(got) == ids(want) {
			return
		}
		if bad < 5 {
			t.Errorf("%s:\n got  %s\n want %s", what, ids(got), ids(want))
		}
		bad++
	}
	for q := 0; q < queries; q++ {
		f := filters[rng.Intn(len(filters))]
		p, c := point(), point()
		r := geom.R(min(p.X, c.X), min(p.Y, c.Y), max(p.X, c.X), max(p.Y, c.Y))

		report(fmt.Sprintf("IntersectingObjects(%v, %+v)", r, f), db.IntersectingObjects(r, f),
			scan(func(o spatialdb.Object) bool { return o.Bounds.Intersects(r) }, f, byID))
		report(fmt.Sprintf("ContainedObjects(%v, %+v)", r, f), db.ContainedObjects(r, f),
			scan(func(o spatialdb.Object) bool { return r.ContainsRect(o.Bounds) }, f, byID))
		report(fmt.Sprintf("ObjectsAt(%v, %+v)", p, f), db.ObjectsAt(p, f),
			scan(func(o spatialdb.Object) bool { return o.Bounds.ContainsPoint(p) }, f,
				func(a, b spatialdb.Object) bool {
					if a.GLOB.Depth() != b.GLOB.Depth() {
						return a.GLOB.Depth() > b.GLOB.Depth()
					}
					return a.ID() < b.ID()
				}))

		k := 1 + rng.Intn(6)
		want := scan(func(spatialdb.Object) bool { return true }, f, func(a, b spatialdb.Object) bool {
			if d1, d2 := a.Bounds.DistToPoint(p), b.Bounds.DistToPoint(p); d1 != d2 {
				return d1 < d2
			}
			return a.ID() < b.ID()
		})
		if len(want) > k {
			want = want[:k]
		}
		report(fmt.Sprintf("Nearest(%v, %d, %+v)", p, k, f), db.Nearest(p, k, f), want)
	}
	if bad > 0 {
		t.Errorf("%d of %d query results differ from the linear scan", bad, 4*queries)
	}
}

// matches is ObjectFilter's documented predicate, restated for the
// reference scan.
func matches(f spatialdb.ObjectFilter, o spatialdb.Object) bool {
	if f.Type != "" && !strings.EqualFold(f.Type, o.Type) {
		return false
	}
	if !f.Prefix.IsZero() && !o.GLOB.HasPrefix(f.Prefix) {
		return false
	}
	for k, v := range f.Properties {
		if o.Properties[k] != v {
			return false
		}
	}
	return true
}
