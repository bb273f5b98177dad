package rtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"middlewhere/internal/geom"
)

func TestEmptyTree(t *testing.T) {
	tr := New[string]()
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if _, ok := tr.Bounds(); ok {
		t.Error("empty tree should have no bounds")
	}
	if got := tr.SearchIntersect(geom.R(0, 0, 100, 100)); got != nil {
		t.Errorf("search on empty = %v", got)
	}
	if got := tr.Nearest(geom.Pt(0, 0), 3); got != nil {
		t.Errorf("nearest on empty = %v", got)
	}
	if tr.Delete(geom.R(0, 0, 1, 1), "x") {
		t.Error("delete on empty should be false")
	}
	if err := tr.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNewWithDegree(t *testing.T) {
	if _, err := NewWithDegree[string](2, 4); err != nil {
		t.Errorf("valid degree rejected: %v", err)
	}
	for _, bad := range [][2]int{{1, 4}, {3, 4}, {2, 3}, {5, 8}} {
		if _, err := NewWithDegree[string](bad[0], bad[1]); err == nil {
			t.Errorf("degree %v should be rejected", bad)
		}
	}
}

func TestInsertAndSearchSmall(t *testing.T) {
	tr := New[string]()
	rects := map[string]geom.Rect{
		"a": geom.R(0, 0, 10, 10),
		"b": geom.R(5, 5, 15, 15),
		"c": geom.R(20, 20, 30, 30),
		"d": geom.R(100, 100, 101, 101),
	}
	for id, r := range rects {
		tr.Insert(r, id)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := ids(tr.SearchIntersect(geom.R(0, 0, 12, 12)))
	want := []string{"a", "b"}
	if !equalIDs(got, want) {
		t.Errorf("intersect = %v, want %v", got, want)
	}
	got = ids(tr.SearchIntersect(geom.R(25, 25, 25, 25)))
	if !equalIDs(got, []string{"c"}) {
		t.Errorf("intersect point (25,25) = %v", got)
	}
	b, ok := tr.Bounds()
	if !ok || !b.Eq(geom.R(0, 0, 101, 101)) {
		t.Errorf("Bounds = %v, %v", b, ok)
	}
}

func TestNearestOrdering(t *testing.T) {
	tr := New[string]()
	for i := 0; i < 10; i++ {
		x := float64(i * 10)
		tr.Insert(geom.R(x, 0, x+1, 1), fmt.Sprintf("r%d", i))
	}
	got := tr.Nearest(geom.Pt(0, 0), 3)
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	wantOrder := []string{"r0", "r1", "r2"}
	for i, it := range got {
		if it.Value != wantOrder[i] {
			t.Errorf("nearest[%d] = %s, want %s", i, it.Value, wantOrder[i])
		}
	}
	// k larger than tree returns everything sorted.
	all := tr.Nearest(geom.Pt(35, 0), 100)
	if len(all) != 10 {
		t.Fatalf("got %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Rect.DistToPoint(geom.Pt(35, 0)) > all[i].Rect.DistToPoint(geom.Pt(35, 0)) {
			t.Error("nearest not sorted by distance")
		}
	}
	if got := tr.Nearest(geom.Pt(0, 0), 0); got != nil {
		t.Errorf("k=0 should be nil, got %v", got)
	}
}

func TestDuplicateIDsAndRects(t *testing.T) {
	tr := New[string]()
	r := geom.R(0, 0, 1, 1)
	tr.Insert(r, "x")
	tr.Insert(r, "x")
	tr.Insert(r, "y")
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if !tr.Delete(r, "x") {
		t.Error("first delete failed")
	}
	if tr.Len() != 2 {
		t.Errorf("Len after delete = %d", tr.Len())
	}
	got := ids(tr.SearchIntersect(r))
	if !equalIDs(got, []string{"x", "y"}) {
		t.Errorf("remaining = %v", got)
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New[string]()
	tr.Insert(geom.R(0, 0, 1, 1), "a")
	if tr.Delete(geom.R(0, 0, 1, 1), "b") {
		t.Error("deleting wrong id should fail")
	}
	if tr.Delete(geom.R(0, 0, 2, 2), "a") {
		t.Error("deleting wrong rect should fail")
	}
	if !tr.Delete(geom.R(0, 0, 1, 1), "a") {
		t.Error("real delete failed")
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if err := tr.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestGrowAndShrinkInvariants(t *testing.T) {
	tr := New[string]()
	rng := rand.New(rand.NewSource(42))
	type rec struct {
		r  geom.Rect
		id string
	}
	var live []rec
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 1000
		y := rng.Float64() * 1000
		r := geom.R(x, y, x+rng.Float64()*50, y+rng.Float64()*50)
		id := fmt.Sprintf("n%d", i)
		tr.Insert(r, id)
		live = append(live, rec{r, id})
		if i%50 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Delete half in random order.
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for i := 0; i < 250; i++ {
		if !tr.Delete(live[i].r, live[i].id) {
			t.Fatalf("delete %s failed", live[i].id)
		}
		if i%25 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if tr.Len() != 250 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Everything remaining is findable.
	for _, rc := range live[250:] {
		found := false
		for _, it := range tr.SearchIntersect(rc.r) {
			if it.Value == rc.id && it.Rect.Eq(rc.r) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("lost entry %s", rc.id)
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAll(t *testing.T) {
	tr := New[string]()
	for i := 0; i < 20; i++ {
		tr.Insert(geom.R(float64(i), 0, float64(i)+1, 1), fmt.Sprintf("i%d", i))
	}
	all := tr.All()
	if len(all) != 20 {
		t.Fatalf("All returned %d", len(all))
	}
	seen := make(map[string]bool)
	for _, it := range all {
		seen[it.Value] = true
	}
	if len(seen) != 20 {
		t.Errorf("duplicate or missing ids: %v", seen)
	}
}

// TestQuickSearchMatchesLinearScan cross-checks the R-tree against a
// brute-force scan on random workloads.
func TestQuickSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		_ = seed
		tr := New[string]()
		n := 30 + rng.Intn(100)
		type rec struct {
			r  geom.Rect
			id string
		}
		recs := make([]rec, n)
		for i := range recs {
			x, y := rng.Float64()*200, rng.Float64()*200
			recs[i] = rec{geom.R(x, y, x+rng.Float64()*30, y+rng.Float64()*30), fmt.Sprintf("q%d", i)}
			tr.Insert(recs[i].r, recs[i].id)
		}
		q := geom.R(rng.Float64()*200, rng.Float64()*200, rng.Float64()*250, rng.Float64()*250)
		var want []string
		for _, rc := range recs {
			if rc.r.Intersects(q) {
				want = append(want, rc.id)
			}
		}
		got := ids(tr.SearchIntersect(q))
		sort.Strings(want)
		return equalIDs(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickNearestMatchesLinearScan cross-checks nearest neighbours.
func TestQuickNearestMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		_ = seed
		tr := New[string]()
		n := 20 + rng.Intn(80)
		rects := make([]geom.Rect, n)
		for i := range rects {
			x, y := rng.Float64()*200, rng.Float64()*200
			rects[i] = geom.R(x, y, x+rng.Float64()*10, y+rng.Float64()*10)
			tr.Insert(rects[i], fmt.Sprintf("p%d", i))
		}
		p := geom.Pt(rng.Float64()*220-10, rng.Float64()*220-10)
		k := 1 + rng.Intn(5)
		got := tr.Nearest(p, k)
		if len(got) != k {
			return false
		}
		dists := make([]float64, n)
		for i, r := range rects {
			dists[i] = r.DistToPoint(p)
		}
		sort.Float64s(dists)
		for i, it := range got {
			// Distances must match the k smallest (allow exact fp equality
			// since both sides compute the same way).
			if it.Rect.DistToPoint(p) != dists[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func ids(items []Item[string]) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Value
	}
	sort.Strings(out)
	return out
}

func equalIDs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
