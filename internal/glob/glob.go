// Package glob implements the GLOB (Gaia LOcation Byte-string), the
// hierarchical location representation of MiddleWhere (§3.1).
//
// A GLOB reads like a directory path. Each segment either names a
// symbolic location in the namespace of its prefix, or — only in the
// last position — is a coordinate list that expresses a geometry with
// respect to the coordinate system of the prefix:
//
//	SC/3/3216/lightswitch1          symbolic point
//	SC/3/3216/(12,3,4)              coordinate point in room 3216's frame
//	SC/3/3216/Door2                 symbolic line
//	SC/3/3216/(1,3),(4,5)           coordinate line
//	SC/3/3216                       symbolic region (the room itself)
//	SC/3/(45,12),(45,40),(65,40),(65,12)   coordinate polygon in the floor frame
//
// Coordinates may be 2-D (x,y) or 3-D (x,y,z); MiddleWhere reasons in
// the floor plane, so Z is carried through but does not participate in
// planar geometry.
package glob

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"middlewhere/internal/geom"
)

// Kind classifies the geometry a GLOB denotes.
type Kind int

// The geometry kinds a GLOB can denote. Symbolic GLOBs have KindSymbolic
// until the spatial database resolves the named object's geometry.
const (
	KindSymbolic Kind = iota + 1
	KindPoint
	KindLine
	KindPolygon
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSymbolic:
		return "symbolic"
	case KindPoint:
		return "point"
	case KindLine:
		return "line"
	case KindPolygon:
		return "polygon"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Granularity names the depth of a GLOB prefix. MiddleWhere's privacy
// constraints (§4.5) reveal a location only up to a granularity.
type Granularity int

// The standard indoor granularity levels. Depth counts path segments:
// SC is depth 1 (building), SC/3 depth 2 (floor), SC/3/3216 depth 3
// (room), anything deeper is sub-room.
const (
	GranBuilding Granularity = 1
	GranFloor    Granularity = 2
	GranRoom     Granularity = 3
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case GranBuilding:
		return "building"
	case GranFloor:
		return "floor"
	case GranRoom:
		return "room"
	default:
		return fmt.Sprintf("depth%d", int(g))
	}
}

// Coord is one coordinate tuple inside a GLOB. Z is zero for 2-D
// tuples; Has3D records whether the source text carried a third
// component so formatting round-trips.
type Coord struct {
	X, Y, Z float64
	Has3D   bool
}

// Point returns the planar projection of c.
func (c Coord) Point() geom.Point { return geom.Pt(c.X, c.Y) }

// String implements fmt.Stringer.
func (c Coord) String() string { return string(c.appendText(make([]byte, 0, 32))) }

// appendText appends the tuple's textual form, "(x,y)" or "(x,y,z)",
// with each component in strconv's shortest 'g' form.
func (c Coord) appendText(b []byte) []byte {
	b = append(b, '(')
	b = strconv.AppendFloat(b, c.X, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, c.Y, 'g', -1, 64)
	if c.Has3D {
		b = append(b, ',')
		b = strconv.AppendFloat(b, c.Z, 'g', -1, 64)
	}
	return append(b, ')')
}

// GLOB is a parsed Gaia LOcation Byte-string: a symbolic path plus an
// optional trailing coordinate list. The zero GLOB is empty and
// invalid; construct values with Parse, Symbolic, or the Coordinate
// helpers.
type GLOB struct {
	// Path holds the symbolic segments, outermost first.
	Path []string
	// Coords holds the trailing coordinate list. Empty for purely
	// symbolic GLOBs.
	Coords []Coord
}

// Sentinel errors returned by Parse.
var (
	ErrEmpty        = errors.New("glob: empty GLOB")
	ErrBadSegment   = errors.New("glob: bad segment")
	ErrBadCoord     = errors.New("glob: bad coordinate")
	ErrInteriorPath = errors.New("glob: coordinates must be the final component")
)

// Symbolic builds a purely symbolic GLOB from path segments.
func Symbolic(segments ...string) GLOB {
	return GLOB{Path: append([]string(nil), segments...)}
}

// CoordinatePoint builds a coordinate point GLOB under prefix.
func CoordinatePoint(prefix GLOB, p geom.Point) GLOB {
	return GLOB{
		Path:   append([]string(nil), prefix.Path...),
		Coords: []Coord{{X: p.X, Y: p.Y}},
	}
}

// CoordinatePolygon builds a coordinate polygon GLOB under prefix.
func CoordinatePolygon(prefix GLOB, poly geom.Polygon) GLOB {
	cs := make([]Coord, len(poly))
	for i, p := range poly {
		cs[i] = Coord{X: p.X, Y: p.Y}
	}
	return GLOB{Path: append([]string(nil), prefix.Path...), Coords: cs}
}

// CoordinateRect builds a coordinate polygon GLOB for an MBR under
// prefix.
func CoordinateRect(prefix GLOB, r geom.Rect) GLOB {
	return CoordinatePolygon(prefix, r.Polygon())
}

// Parse parses the textual form of a GLOB.
func Parse(s string) (GLOB, error) {
	s = strings.TrimSpace(s)
	s = strings.Trim(s, "/")
	if s == "" {
		return GLOB{}, ErrEmpty
	}
	var g GLOB
	rest := s
	for rest != "" {
		if rest[0] == '(' {
			// The remainder must be the coordinate list; it may itself
			// contain '/' only inside nothing (coordinates use commas),
			// so the whole remainder is one component.
			coords, err := parseCoords(rest)
			if err != nil {
				return GLOB{}, err
			}
			g.Coords = coords
			return g, nil
		}
		seg := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seg, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if seg == "" {
			return GLOB{}, fmt.Errorf("%w: empty segment in %q", ErrBadSegment, s)
		}
		if strings.ContainsAny(seg, "()") {
			return GLOB{}, fmt.Errorf("%w: segment %q mixes name and coordinates", ErrBadSegment, seg)
		}
		for _, r := range seg {
			if unicode.IsSpace(r) || unicode.IsControl(r) || r == unicode.ReplacementChar {
				return GLOB{}, fmt.Errorf("%w: segment %q contains whitespace or control characters", ErrBadSegment, seg)
			}
		}
		g.Path = append(g.Path, seg)
	}
	return g, nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(s string) GLOB {
	g, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return g
}

// parseCoords parses "(a,b),(c,d),..." into a coordinate list.
func parseCoords(s string) ([]Coord, error) {
	var out []Coord
	rest := s
	for rest != "" {
		if rest[0] == ',' {
			rest = rest[1:]
			continue
		}
		if rest[0] != '(' {
			return nil, fmt.Errorf("%w: expected '(' at %q", ErrBadCoord, rest)
		}
		end := strings.IndexByte(rest, ')')
		if end < 0 {
			return nil, fmt.Errorf("%w: unterminated tuple in %q", ErrBadCoord, s)
		}
		body := rest[1:end]
		rest = rest[end+1:]
		parts := strings.Split(body, ",")
		if len(parts) != 2 && len(parts) != 3 {
			return nil, fmt.Errorf("%w: tuple (%s) must have 2 or 3 components", ErrBadCoord, body)
		}
		var c Coord
		vals := make([]float64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("%w: %q: %v", ErrBadCoord, p, err)
			}
			vals[i] = v
		}
		c.X, c.Y = vals[0], vals[1]
		if len(vals) == 3 {
			c.Z, c.Has3D = vals[2], true
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: no tuples in %q", ErrBadCoord, s)
	}
	return out, nil
}

// String renders g back to its textual form. The builder is sized for
// the path plus ~16 bytes per coordinate tuple and each tuple is
// formatted on the stack first, so a GLOB usually costs one allocation.
func (g GLOB) String() string {
	n := 16 * len(g.Coords)
	for _, seg := range g.Path {
		n += len(seg) + 1
	}
	var b strings.Builder
	b.Grow(n)
	for i, seg := range g.Path {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(seg)
	}
	if len(g.Coords) > 0 {
		if len(g.Path) > 0 {
			b.WriteByte('/')
		}
		var tuple [80]byte
		for i, c := range g.Coords {
			if i > 0 {
				b.WriteByte(',')
			}
			b.Write(c.appendText(tuple[:0]))
		}
	}
	return b.String()
}

// IsZero reports whether g is the empty GLOB.
func (g GLOB) IsZero() bool { return len(g.Path) == 0 && len(g.Coords) == 0 }

// IsCoordinate reports whether g carries an explicit coordinate list.
func (g GLOB) IsCoordinate() bool { return len(g.Coords) > 0 }

// IsSymbolic reports whether g is purely symbolic.
func (g GLOB) IsSymbolic() bool { return len(g.Coords) == 0 && len(g.Path) > 0 }

// Kind classifies the geometry g denotes.
func (g GLOB) Kind() Kind {
	switch n := len(g.Coords); {
	case n == 0:
		return KindSymbolic
	case n == 1:
		return KindPoint
	case n == 2:
		return KindLine
	default:
		return KindPolygon
	}
}

// Depth returns the number of symbolic path segments.
func (g GLOB) Depth() int { return len(g.Path) }

// Name returns the last symbolic segment, or "" when g has none.
func (g GLOB) Name() string {
	if len(g.Path) == 0 {
		return ""
	}
	return g.Path[len(g.Path)-1]
}

// Prefix returns the GLOB naming the enclosing space: all symbolic
// segments except the final component (which may be symbolic or
// coordinate).
func (g GLOB) Prefix() GLOB {
	if len(g.Coords) > 0 {
		return Symbolic(g.Path...)
	}
	if len(g.Path) <= 1 {
		return GLOB{}
	}
	return Symbolic(g.Path[:len(g.Path)-1]...)
}

// Child returns g extended by one symbolic segment. It is only
// meaningful on symbolic GLOBs.
func (g GLOB) Child(name string) GLOB {
	out := Symbolic(g.Path...)
	out.Path = append(out.Path, name)
	return out
}

// Equal reports whether g and h denote the same GLOB textually
// (coordinates compared exactly).
func (g GLOB) Equal(h GLOB) bool {
	if len(g.Path) != len(h.Path) || len(g.Coords) != len(h.Coords) {
		return false
	}
	for i := range g.Path {
		if g.Path[i] != h.Path[i] {
			return false
		}
	}
	for i := range g.Coords {
		if g.Coords[i] != h.Coords[i] {
			return false
		}
	}
	return true
}

// HasPrefix reports whether prefix's symbolic path is an ancestor of
// (or equal to) g's. A coordinate GLOB has the prefix of its path.
func (g GLOB) HasPrefix(prefix GLOB) bool {
	if len(prefix.Coords) > 0 {
		return false
	}
	if len(prefix.Path) > len(g.Path) {
		return false
	}
	for i := range prefix.Path {
		if g.Path[i] != prefix.Path[i] {
			return false
		}
	}
	return true
}

// Truncate returns g cut down to at most the given granularity depth.
// It implements the privacy constraint of §4.5: a location revealed at
// GranFloor keeps only building and floor segments and drops any
// coordinates. If g is already at or above the granularity it is
// returned unchanged (minus coordinates when truncation applies).
func (g GLOB) Truncate(gran Granularity) GLOB {
	d := int(gran)
	if d <= 0 {
		return GLOB{}
	}
	if len(g.Path) <= d && len(g.Coords) == 0 {
		return g
	}
	if len(g.Path) < d {
		d = len(g.Path)
	}
	return Symbolic(g.Path[:d]...)
}

// PlanarPoints projects the coordinate list to planar points.
func (g GLOB) PlanarPoints() []geom.Point {
	if len(g.Coords) == 0 {
		return nil
	}
	out := make([]geom.Point, len(g.Coords))
	for i, c := range g.Coords {
		out[i] = c.Point()
	}
	return out
}

// Geometry returns the planar geometry g denotes in its prefix frame:
// a degenerate Rect for a point, the MBR of the chain for a line, and
// the polygon for three or more tuples. ok is false for symbolic
// GLOBs, whose geometry lives in the spatial database.
func (g GLOB) Geometry() (poly geom.Polygon, ok bool) {
	pts := g.PlanarPoints()
	if len(pts) == 0 {
		return nil, false
	}
	return geom.Polygon(pts), true
}

// Bounds returns the MBR of g's coordinate geometry; ok is false for
// symbolic GLOBs.
func (g GLOB) Bounds() (geom.Rect, bool) {
	pts := g.PlanarPoints()
	if len(pts) == 0 {
		return geom.Rect{}, false
	}
	return geom.BoundsOfPoints(pts...), true
}
