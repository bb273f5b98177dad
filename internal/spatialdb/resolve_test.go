package spatialdb

import (
	"errors"
	"math"
	"strings"
	"testing"

	"middlewhere/internal/coords"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

// resolveTree is the frame tree of the resolution tests: building CS,
// floors with and without rotation and scale, rooms with frames of
// their own, a hall frame whose floor CS/Annex is neither a frame nor
// an object, and a bay frame whose floor CS/Depot is an object only.
func resolveTree(t testing.TB) *coords.Tree {
	t.Helper()
	tr := coords.NewTree()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tr.AddRoot("CS"))
	must(tr.AddFrame("CS/Floor1", "CS", coords.Identity))
	must(tr.AddFrame("CS/Floor2", "CS", coords.Transform{Origin: geom.Pt(0, 100), Theta: 0.3, Scale: 1.5}))
	must(tr.AddFrame("CS/Floor2/Lab", "CS/Floor2", coords.Transform{Origin: geom.Pt(10, 5), Theta: 1.2, Scale: 0.5}))
	must(tr.AddFrame("CS/Floor1/3105", "CS/Floor1", coords.Transform{Origin: geom.Pt(330, 0), Scale: 1}))
	// Rotated 90° counter-clockwise relative to its floor.
	must(tr.AddFrame("CS/Floor1/Turned", "CS/Floor1", coords.Transform{Origin: geom.Pt(10, 10), Theta: math.Pi / 2, Scale: 1}))
	must(tr.AddFrame("CS/Annex/Hall", "CS", coords.Transform{Origin: geom.Pt(600, 0), Scale: 1}))
	must(tr.AddFrame("CS/Depot/Bay", "CS", coords.Transform{Origin: geom.Pt(700, 50), Theta: -0.7, Scale: 2}))
	return tr
}

// resolveDB builds a DB over resolveTree with the objects CS/Wing and
// CS/Depot (floors without a frame of their own) and room 3105.
func resolveDB(t testing.TB, tr *coords.Tree) *DB {
	t.Helper()
	db := New(tr.Routes(), geom.R(0, 0, 1000, 1000))
	square := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}}
	for _, id := range []string{"CS/Wing", "CS/Depot", "CS/Floor1/3105"} {
		if err := db.InsertObject(Object{GLOB: glob.MustParse(id), Type: "Room", Kind: glob.KindPolygon, LocalPoints: square}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestResolveLongestFramePrefix pins which frame a coordinate GLOB's
// tuples are read in: the deepest frame whose name is a prefix of the
// path. A room with a frame reads in it, a room without one in its
// floor's, a path under no frame is an error.
func TestResolveLongestFramePrefix(t *testing.T) {
	db := resolveDB(t, resolveTree(t))
	for _, c := range []struct {
		give string
		want geom.Rect
	}{
		{"CS/Floor1/3105/(1,2)", geom.R(331, 2, 331, 2)},      // room with a frame
		{"CS/Floor1/3105/desk/(1,2)", geom.R(331, 2, 331, 2)}, // falls back to the room
		{"CS/Floor1/9999/(1,2)", geom.R(1, 2, 1, 2)},          // room without a frame → floor
		{"CS/(7,8)", geom.R(7, 8, 7, 8)},                      // building frame
		// (x,y) → (-y,x) + (10,10): the corners of [0,2]×[0,1] map to
		// (10,10),(10,12),(9,12),(9,10).
		{"CS/Floor1/Turned/(0,0),(2,0),(2,1),(0,1)", geom.R(9, 10, 10, 12)},
	} {
		got, err := db.ResolveGLOB(glob.MustParse(c.give))
		if err != nil {
			t.Errorf("%s: %v", c.give, err)
			continue
		}
		if !got.Eq(c.want) {
			t.Errorf("%s resolved to %v, want %v", c.give, got, c.want)
		}
	}
	for _, give := range []string{"ZZ/1/(1,2)", "(1,2)"} {
		_, err := db.ResolveGLOB(glob.MustParse(give))
		if err == nil || !strings.Contains(err.Error(), "no coordinate frame for prefix") {
			t.Errorf("%s: err = %v, want no coordinate frame", give, err)
		}
	}
}

// resolveByConvert is the reference resolution of a coordinate GLOB:
// the deepest prefix tr.Has, every tuple taken to the root frame (the
// path's first segment) by tr.Convert, and geom.BoundsOfPoints. ok is
// false when no prefix is a frame.
func resolveByConvert(t *testing.T, tr *coords.Tree, g glob.GLOB) (r geom.Rect, ok bool) {
	for d := len(g.Path); d > 0; d-- {
		frame := strings.Join(g.Path[:d], "/")
		if !tr.Has(frame) {
			continue
		}
		pts := make([]geom.Point, len(g.Coords))
		for i, c := range g.Coords {
			p, err := tr.Convert(c.Point(), frame, g.Path[0])
			if err != nil {
				t.Fatalf("reference Convert %s: %v", frame, err)
			}
			pts[i] = p
		}
		return geom.BoundsOfPoints(pts...), true
	}
	return geom.Rect{}, false
}

func sameBits(a, b geom.Rect) bool {
	for _, f := range [][2]float64{{a.Min.X, b.Min.X}, {a.Min.Y, b.Min.Y}, {a.Max.X, b.Max.X}, {a.Max.Y, b.Max.Y}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return true
}

// FuzzResolveCoordinate checks the route-table resolution of coordinate
// GLOBs against resolveByConvert. sel picks each path segment — the
// building (or an unknown one), a floor that is a frame, an object
// only, neither, or invented, and rooms with and without frames —
// segLen sizes a generated segment so paths run past routeFor's 64-byte
// buffer, and npts tuples are spread from (x, y). ResolveGLOB must
// return the reference MBR bit for bit, and a reading must be accepted
// exactly when its floor (ShardKeyForGLOB) is a frame or an object and
// some prefix is a frame; an invented floor is rejected with
// ErrNotFound.
func FuzzResolveCoordinate(f *testing.F) {
	f.Add(5.0, 5.0, uint64(0), uint8(2), uint8(0), uint8(1))
	f.Add(1.5, -2.25, uint64(0x010100), uint8(3), uint8(0), uint8(4)) // Floor2/Lab
	f.Add(3.0, 4.0, uint64(0x0500), uint8(3), uint8(0), uint8(1))     // invented floor
	f.Add(0.0, 0.0, uint64(0x020200), uint8(3), uint8(0), uint8(2))   // Annex/Hall
	f.Add(2.0, 1.0, uint64(0x030300), uint8(3), uint8(0), uint8(3))   // Depot/Bay
	f.Add(7.0, 8.0, uint64(0x0505050000), uint8(6), uint8(90), uint8(3))
	f.Add(1.0, 1.0, uint64(0xff), uint8(2), uint8(0), uint8(1)) // unknown building
	f.Add(1.0, 1.0, uint64(0), uint8(0), uint8(0), uint8(1))    // no path
	tr := resolveTree(f)
	db := resolveDB(f, tr)
	floors := []string{"Floor1", "Floor2", "Annex", "Depot", "Wing", "F9"}
	rooms := []string{"3105", "Lab", "Hall", "Bay", "Turned", ""}
	f.Fuzz(func(t *testing.T, x, y float64, sel uint64, depth, segLen, npts uint8) {
		path := make([]string, int(depth%7))
		for i := range path {
			b := int(sel >> (8 * i) & 0xff)
			switch {
			case i == 0 && b == 0xff:
				path[i] = "ZZ"
			case i == 0:
				path[i] = "CS"
			case i == 1:
				path[i] = floors[b%len(floors)]
			default:
				path[i] = rooms[b%len(rooms)]
			}
			if path[i] == "" {
				path[i] = strings.Repeat("x", 1+int(segLen))
			}
		}
		g := glob.GLOB{Path: path}
		for k := 0; k <= int(npts%5); k++ {
			g.Coords = append(g.Coords, glob.Coord{X: x + float64(k%2), Y: y + float64(k/2)})
		}

		want, ok := resolveByConvert(t, tr, g)
		got, err := db.ResolveGLOB(g)
		if ok != (err == nil) {
			t.Fatalf("%s: ResolveGLOB err = %v, reference found a frame: %v", g, err, ok)
		}
		if ok && !sameBits(got, want) {
			t.Fatalf("%s: ResolveGLOB = %v, reference = %v", g, got, want)
		}

		floor := ShardKeyForGLOB(g)
		_, objErr := db.GetObject(floor)
		floorKnown := len(path) == 0 || tr.Has(floor) || objErr == nil
		_, err = db.resolveReading(model.Reading{SensorID: "s", MObjectID: "m", Location: g}, model.SensorSpec{})
		if accept := floorKnown && ok; accept != (err == nil) {
			t.Fatalf("%s: resolveReading err = %v, want accepted %v", g, err, accept)
		}
		if !floorKnown && !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: invented floor %s: err = %v, want ErrNotFound", g, floor, err)
		}
	})
}
