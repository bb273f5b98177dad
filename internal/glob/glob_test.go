package glob

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"middlewhere/internal/geom"
)

func TestParseSymbolic(t *testing.T) {
	tests := []struct {
		give     string
		wantPath []string
		wantKind Kind
	}{
		{"SC/3/3216/lightswitch1", []string{"SC", "3", "3216", "lightswitch1"}, KindSymbolic},
		{"SC/3/3216", []string{"SC", "3", "3216"}, KindSymbolic},
		{"SC", []string{"SC"}, KindSymbolic},
		{"/SC/3/", []string{"SC", "3"}, KindSymbolic}, // tolerant of stray slashes
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			g, err := Parse(tt.give)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if len(g.Path) != len(tt.wantPath) {
				t.Fatalf("path = %v, want %v", g.Path, tt.wantPath)
			}
			for i := range tt.wantPath {
				if g.Path[i] != tt.wantPath[i] {
					t.Errorf("path[%d] = %q, want %q", i, g.Path[i], tt.wantPath[i])
				}
			}
			if g.Kind() != tt.wantKind {
				t.Errorf("kind = %v, want %v", g.Kind(), tt.wantKind)
			}
			if !g.IsSymbolic() || g.IsCoordinate() {
				t.Error("should be symbolic")
			}
		})
	}
}

func TestParseCoordinate(t *testing.T) {
	tests := []struct {
		give       string
		wantPath   []string
		wantCoords []Coord
		wantKind   Kind
	}{
		{
			give:       "SC/3/3216/(12,3,4)",
			wantPath:   []string{"SC", "3", "3216"},
			wantCoords: []Coord{{X: 12, Y: 3, Z: 4, Has3D: true}},
			wantKind:   KindPoint,
		},
		{
			give:       "SC/3/3216/(1,3),(4,5)",
			wantPath:   []string{"SC", "3", "3216"},
			wantCoords: []Coord{{X: 1, Y: 3}, {X: 4, Y: 5}},
			wantKind:   KindLine,
		},
		{
			give:     "SC/3/(45,12),(45,40),(65,40),(65,12)",
			wantPath: []string{"SC", "3"},
			wantCoords: []Coord{
				{X: 45, Y: 12}, {X: 45, Y: 40}, {X: 65, Y: 40}, {X: 65, Y: 12},
			},
			wantKind: KindPolygon,
		},
		{
			give:       "(1.5,-2.25)",
			wantPath:   nil,
			wantCoords: []Coord{{X: 1.5, Y: -2.25}},
			wantKind:   KindPoint,
		},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			g, err := Parse(tt.give)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if len(g.Path) != len(tt.wantPath) {
				t.Fatalf("path = %v, want %v", g.Path, tt.wantPath)
			}
			if len(g.Coords) != len(tt.wantCoords) {
				t.Fatalf("coords = %v, want %v", g.Coords, tt.wantCoords)
			}
			for i := range tt.wantCoords {
				if g.Coords[i] != tt.wantCoords[i] {
					t.Errorf("coord[%d] = %v, want %v", i, g.Coords[i], tt.wantCoords[i])
				}
			}
			if g.Kind() != tt.wantKind {
				t.Errorf("kind = %v, want %v", g.Kind(), tt.wantKind)
			}
			if !g.IsCoordinate() {
				t.Error("should be coordinate")
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		give    string
		wantErr error
	}{
		{"", ErrEmpty},
		{"   ", ErrEmpty},
		{"//", ErrEmpty},
		{"SC/3/(1,2/room", ErrBadCoord},   // unterminated tuple
		{"SC/3/(1)", ErrBadCoord},         // 1-component tuple
		{"SC/3/(1,2,3,4)", ErrBadCoord},   // 4-component tuple
		{"SC/3/(a,b)", ErrBadCoord},       // non-numeric
		{"SC/3/room(1,2)", ErrBadSegment}, // mixed segment
		{"SC/3/3216/()", ErrBadCoord},     // empty tuple
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			_, err := Parse(tt.give)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestStringRoundTrip(t *testing.T) {
	inputs := []string{
		"SC/3/3216/lightswitch1",
		"SC/3/3216/(12,3,4)",
		"SC/3/3216/(1,3),(4,5)",
		"SC/3/(45,12),(45,40),(65,40),(65,12)",
		"SC",
		"(0,0),(1,0),(1,1)",
	}
	for _, in := range inputs {
		g := MustParse(in)
		if got := g.String(); got != in {
			t.Errorf("round trip %q -> %q", in, got)
		}
		// Parse(String()) is identity.
		again := MustParse(g.String())
		if !again.Equal(g) {
			t.Errorf("reparse of %q differs", in)
		}
	}
}

// fmtCoord and fmtGLOB are the fmt.Sprintf formatting that
// Coord.String and GLOB.String replaced; the appending form must match
// them byte for byte.
func fmtCoord(c Coord) string {
	ftoa := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if c.Has3D {
		return fmt.Sprintf("(%s,%s,%s)", ftoa(c.X), ftoa(c.Y), ftoa(c.Z))
	}
	return fmt.Sprintf("(%s,%s)", ftoa(c.X), ftoa(c.Y))
}

func fmtGLOB(g GLOB) string {
	var b strings.Builder
	b.WriteString(strings.Join(g.Path, "/"))
	if len(g.Coords) > 0 {
		if len(g.Path) > 0 {
			b.WriteByte('/')
		}
		for i, c := range g.Coords {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(fmtCoord(c))
		}
	}
	return b.String()
}

func TestStringMatchesFmtForm(t *testing.T) {
	negZero := math.Copysign(0, -1)
	coords := []Coord{
		{X: 370, Y: 15},                          // 2-D
		{X: 12, Y: 3, Z: 4, Has3D: true},         // 3-D
		{X: -45.25, Y: -0.5, Z: -7, Has3D: true}, // negative
		{X: negZero, Y: 0, Z: negZero, Has3D: true},
		{X: 1e21, Y: 1.5e-7}, // exponent form
		{X: -math.MaxFloat64, Y: math.SmallestNonzeroFloat64, Z: 2.5e300, Has3D: true},
		{X: 0.1 + 0.2, Y: 1.0 / 3}, // 17 significant digits
		{X: math.Inf(1), Y: math.NaN()},
	}
	for _, c := range coords {
		if got, want := c.String(), fmtCoord(c); got != want {
			t.Errorf("Coord.String = %q, fmt form %q", got, want)
		}
	}
	globs := []GLOB{
		Symbolic("CS", "Floor3", "NetLab"),
		{Coords: coords[:1]},
		{Path: []string{"SC", "3"}, Coords: coords},
		CoordinateRect(Symbolic("CS"), geom.R(-1e-9, negZero, 370.125, 4.5e22)),
	}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 200; i++ {
		g := GLOB{Path: []string{"B", "F" + strconv.Itoa(i)}}
		for j := rng.Intn(5); j >= 0; j-- {
			c := Coord{X: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)),
				Y: -rng.ExpFloat64(), Z: float64(rng.Intn(100)), Has3D: rng.Intn(2) == 0}
			g.Coords = append(g.Coords, c)
		}
		globs = append(globs, g)
	}
	for _, g := range globs {
		if got, want := g.String(), fmtGLOB(g); got != want {
			t.Errorf("GLOB.String = %q, fmt form %q", got, want)
		}
	}
}

func TestPrefixNameDepth(t *testing.T) {
	g := MustParse("SC/3/3216/lightswitch1")
	if g.Depth() != 4 {
		t.Errorf("Depth = %d", g.Depth())
	}
	if g.Name() != "lightswitch1" {
		t.Errorf("Name = %q", g.Name())
	}
	if got := g.Prefix().String(); got != "SC/3/3216" {
		t.Errorf("Prefix = %q", got)
	}
	c := MustParse("SC/3/3216/(1,2)")
	if got := c.Prefix().String(); got != "SC/3/3216" {
		t.Errorf("coordinate Prefix = %q", got)
	}
	if got := MustParse("SC").Prefix(); !got.IsZero() {
		t.Errorf("root Prefix = %v, want zero", got)
	}
}

func TestChildAndHasPrefix(t *testing.T) {
	floor := Symbolic("SC", "3")
	room := floor.Child("3216")
	if room.String() != "SC/3/3216" {
		t.Errorf("Child = %q", room.String())
	}
	if !room.HasPrefix(floor) {
		t.Error("room should have floor prefix")
	}
	if !room.HasPrefix(room) {
		t.Error("prefix is reflexive")
	}
	if floor.HasPrefix(room) {
		t.Error("floor must not have room prefix")
	}
	other := Symbolic("SC", "4")
	if room.HasPrefix(other) {
		t.Error("different floor is not a prefix")
	}
	coord := MustParse("SC/3/(1,2)")
	if !coord.HasPrefix(floor) {
		t.Error("coordinate GLOB should inherit path prefix")
	}
	if room.HasPrefix(coord) {
		t.Error("coordinate GLOB cannot be a prefix")
	}
}

func TestTruncatePrivacy(t *testing.T) {
	tests := []struct {
		name string
		give string
		gran Granularity
		want string
	}{
		{"point to room", "SC/3/3216/(12,3,4)", GranRoom, "SC/3/3216"},
		{"object to floor", "SC/3/3216/lightswitch1", GranFloor, "SC/3"},
		{"room to building", "SC/3/3216", GranBuilding, "SC"},
		{"already coarse", "SC", GranRoom, "SC"},
		{"room at room", "SC/3/3216", GranRoom, "SC/3/3216"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := MustParse(tt.give).Truncate(tt.gran)
			if got.String() != tt.want {
				t.Errorf("Truncate = %q, want %q", got.String(), tt.want)
			}
		})
	}
	if got := MustParse("SC/3").Truncate(0); !got.IsZero() {
		t.Errorf("Truncate(0) = %v, want zero", got)
	}
}

func TestGeometryAndBounds(t *testing.T) {
	poly := MustParse("SC/3/(0,0),(4,0),(4,2),(0,2)")
	g, ok := poly.Geometry()
	if !ok {
		t.Fatal("Geometry should resolve for coordinate GLOB")
	}
	if a := g.Area(); a != 8 {
		t.Errorf("area = %v, want 8", a)
	}
	b, ok := poly.Bounds()
	if !ok || !b.Eq(geom.R(0, 0, 4, 2)) {
		t.Errorf("Bounds = %v ok=%v", b, ok)
	}
	sym := MustParse("SC/3/3216")
	if _, ok := sym.Geometry(); ok {
		t.Error("symbolic GLOB must not resolve geometry")
	}
	if _, ok := sym.Bounds(); ok {
		t.Error("symbolic GLOB must not resolve bounds")
	}
}

func TestConstructors(t *testing.T) {
	prefix := Symbolic("SC", "3")
	pt := CoordinatePoint(prefix, geom.Pt(1, 2))
	if pt.String() != "SC/3/(1,2)" {
		t.Errorf("CoordinatePoint = %q", pt.String())
	}
	r := CoordinateRect(prefix, geom.R(0, 0, 2, 1))
	if r.Kind() != KindPolygon || len(r.Coords) != 4 {
		t.Errorf("CoordinateRect = %v", r)
	}
	if b, _ := r.Bounds(); !b.Eq(geom.R(0, 0, 2, 1)) {
		t.Errorf("rect bounds = %v", b)
	}
	// Constructors copy their inputs: mutating the prefix afterwards
	// must not change the constructed GLOB.
	prefix.Path[0] = "XX"
	if pt.Path[0] != "SC" {
		t.Error("CoordinatePoint aliased prefix path")
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		give Kind
		want string
	}{
		{KindSymbolic, "symbolic"},
		{KindPoint, "point"},
		{KindLine, "line"},
		{KindPolygon, "polygon"},
		{Kind(42), "Kind(42)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

func TestGranularityString(t *testing.T) {
	if GranBuilding.String() != "building" || GranFloor.String() != "floor" ||
		GranRoom.String() != "room" || Granularity(7).String() != "depth7" {
		t.Error("Granularity.String mismatch")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	// Any GLOB built from sane segments and coordinates survives a
	// String/Parse round trip.
	f := func(a, b uint8, xs []float64) bool {
		segs := []string{"B" + itoa(int(a)%10), "F" + itoa(int(b)%10)}
		g := Symbolic(segs...)
		if len(xs) >= 2 {
			n := len(xs) / 2
			if n > 6 {
				n = 6
			}
			for i := 0; i < n; i++ {
				x, y := sanitize(xs[2*i]), sanitize(xs[2*i+1])
				g.Coords = append(g.Coords, Coord{X: x, Y: y})
			}
		}
		got, err := Parse(g.String())
		return err == nil && got.Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

// sanitize maps arbitrary floats to finite, round-trippable values.
func sanitize(v float64) float64 {
	if v != v || v > 1e9 || v < -1e9 { // NaN or huge
		return 0
	}
	return float64(int64(v*100)) / 100
}

func TestQuickParserNeverPanics(t *testing.T) {
	// Arbitrary byte soup must produce an error or a GLOB, never a
	// panic, and any successfully parsed GLOB must re-parse from its
	// own String().
	f := func(raw []byte) bool {
		s := string(raw)
		g, err := Parse(s)
		if err != nil {
			return true
		}
		again, err := Parse(g.String())
		return err == nil && again.Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
