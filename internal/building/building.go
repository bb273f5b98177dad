// Package building holds the declarative model of a physical space:
// the coordinate frames, the universe rectangle, the rows of the
// physical-space table (floors, corridors, rooms, and static objects
// like displays), and the doors that connect regions. It is the §4.2
// "geometric model of the physical space" the spatial database is
// loaded from.
//
// A Building is pure data. NewDB materializes it into a spatial
// database (frame tree + R-tree-indexed object table) and Graph
// materializes it into the traversability graph the routing and
// relation layers consume. Buildings come from three places: the
// PaperFloor replica of the paper's Figure 5, the Synthetic and
// MultiStorey generators used by experiments and load tests, and
// LoadPlan, which parses the JSON floor-plan format so a new
// deployment needs no Go code (see plan.go).
package building

import (
	"fmt"
	"sort"

	"middlewhere/internal/coords"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/rcc"
	"middlewhere/internal/spatialdb"
	"middlewhere/internal/topo"
)

// Object types used by the building model. The core service and the
// query layer filter on these strings (Table 1's object classes).
const (
	TypeFloor    = "Floor"
	TypeRoom     = "Room"
	TypeCorridor = "Corridor"
	TypeDisplay  = "Display"
	TypeSwitch   = "Switch"
)

// FrameSpec declares one coordinate frame of the building's frame
// tree (§3's hierarchical coordinate systems). Frames are named by
// their GLOB path ("CS/Floor3/NetLab"); a frame with an empty Parent
// is a root. Parents must be declared before their children.
type FrameSpec struct {
	// Name is the frame's GLOB path.
	Name string
	// Parent is the parent frame's name; empty for a root frame.
	Parent string
	// Origin is the frame origin expressed in the parent frame.
	Origin geom.Point
	// Theta is the rotation relative to the parent, in radians.
	Theta float64
	// Scale is the unit scale relative to the parent; 0 means 1.
	Scale float64
}

// DoorSpec connects two regions with a door.
type DoorSpec struct {
	// RoomA and RoomB are the GLOB strings of the connected regions.
	RoomA, RoomB string
	// Span is the door segment in universe coordinates.
	Span geom.Segment
	// Kind says whether the passage is free or restricted.
	Kind rcc.Passage
}

// Building bundles coordinate frames, the universe rectangle, the
// object-table rows, and doors. It is immutable by convention once
// constructed; NewDB and Graph may be called repeatedly and
// concurrently.
type Building struct {
	// Name is the building's GLOB root segment (e.g. "CS").
	Name string
	// Universe is the bounding rectangle of all geometry, in the root
	// frame.
	Universe geom.Rect
	// Frames lists the coordinate frames, parents before children.
	Frames []FrameSpec
	// Objects are the physical-space table rows. LocalPoints are
	// expressed in the deepest registered frame of each object's GLOB
	// prefix; the spatial database resolves them to universe
	// coordinates on insert.
	Objects []spatialdb.Object
	// Doors connect Room/Corridor regions.
	Doors []DoorSpec
}

// frameTree builds the coordinate frame tree from the frame specs.
func (b *Building) frameTree() (*coords.Tree, error) {
	tree := coords.NewTree()
	for _, f := range b.Frames {
		var err error
		if f.Parent == "" {
			err = tree.AddRoot(f.Name)
		} else {
			err = tree.AddFrame(f.Name, f.Parent, coords.Transform{
				Origin: f.Origin, Theta: f.Theta, Scale: f.Scale,
			})
		}
		if err != nil {
			return nil, fmt.Errorf("building %s: frame %s: %w", b.Name, f.Name, err)
		}
	}
	return tree, nil
}

// NewDB materializes the building into a spatial database: it builds
// the frame tree, creates the database over the tree's routes and the
// universe, and inserts every object (resolving local geometry into
// the root frame).
func (b *Building) NewDB() (*spatialdb.DB, error) {
	tree, err := b.frameTree()
	if err != nil {
		return nil, err
	}
	db := spatialdb.New(tree.Routes(), b.Universe)
	for _, o := range b.Objects {
		if err := db.InsertObject(o); err != nil {
			return nil, fmt.Errorf("building %s: object %s: %w", b.Name, o.GLOB, err)
		}
	}
	return db, nil
}

// Graph materializes the traversability graph: every Room and
// Corridor becomes a region node (keyed by its GLOB string, with its
// universe-frame MBR), and every DoorSpec becomes a door edge.
func (b *Building) Graph() (*topo.Graph, error) {
	db, err := b.NewDB()
	if err != nil {
		return nil, err
	}
	g := topo.NewGraph()
	for _, o := range db.Objects() {
		if o.Type == TypeRoom || o.Type == TypeCorridor {
			g.AddRegion(o.GLOB.String(), o.Bounds)
		}
	}
	for _, d := range b.Doors {
		if err := g.AddDoor(d.RoomA, d.RoomB, rcc.Door{Span: d.Span, Kind: d.Kind}); err != nil {
			return nil, fmt.Errorf("building %s: door %s-%s: %w", b.Name, d.RoomA, d.RoomB, err)
		}
	}
	return g, nil
}

// Rooms returns the GLOB strings of all Room objects, sorted.
func (b *Building) Rooms() []string {
	var out []string
	for _, o := range b.Objects {
		if o.Type == TypeRoom {
			out = append(out, o.GLOB.String())
		}
	}
	sort.Strings(out)
	return out
}

// addPolygon appends a polygon object whose local geometry is the
// four corners of r (expressed in the object's prefix frame).
func (b *Building) addPolygon(globStr, typ string, r geom.Rect, props map[string]string) {
	b.Objects = append(b.Objects, spatialdb.Object{
		GLOB:        glob.MustParse(globStr),
		Type:        typ,
		Kind:        glob.KindPolygon,
		LocalPoints: r.Vertices(),
		Properties:  props,
	})
}

// addLine appends a line object (e.g. a wall-mounted display).
func (b *Building) addLine(globStr, typ string, s geom.Segment, props map[string]string) {
	b.Objects = append(b.Objects, spatialdb.Object{
		GLOB:        glob.MustParse(globStr),
		Type:        typ,
		Kind:        glob.KindLine,
		LocalPoints: []geom.Point{s.A, s.B},
		Properties:  props,
	})
}

// addPoint appends a point object (e.g. a light switch).
func (b *Building) addPoint(globStr, typ string, p geom.Point, props map[string]string) {
	b.Objects = append(b.Objects, spatialdb.Object{
		GLOB:        glob.MustParse(globStr),
		Type:        typ,
		Kind:        glob.KindPoint,
		LocalPoints: []geom.Point{p},
		Properties:  props,
	})
}

// addDoor appends a door between two regions.
func (b *Building) addDoor(roomA, roomB string, span geom.Segment, kind rcc.Passage) {
	b.Doors = append(b.Doors, DoorSpec{RoomA: roomA, RoomB: roomB, Span: span, Kind: kind})
}
