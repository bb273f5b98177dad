// Package coords implements MiddleWhere's hierarchical coordinate
// systems (§3). Each building, floor and room has its own planar frame
// with an origin, rotation, and scale relative to its parent frame.
// The package stores the frame tree and converts points, rectangles
// and polygons between any two frames that share a root.
//
// Frames are named by the GLOB path of the space they belong to, e.g.
// "SC", "SC/3", "SC/3/3216". Conversions compose the affine transforms
// up to the common ancestor and back down.
package coords

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"middlewhere/internal/geom"
)

// Transform is a similarity transform (rotation + uniform scale +
// translation) mapping child-frame coordinates into the parent frame:
//
//	parent = Origin + Scale * Rot(Theta) * child
type Transform struct {
	// Origin is the child frame's origin expressed in the parent frame.
	Origin geom.Point
	// Theta is the counter-clockwise rotation of the child frame's axes
	// relative to the parent's, in radians.
	Theta float64
	// Scale is the uniform scale factor from child units to parent
	// units. Zero is treated as 1 (identity scale) so the zero
	// Transform is usable as-is.
	Scale float64
}

// Identity is the transform that maps a frame onto its parent
// unchanged.
var Identity = Transform{Scale: 1}

// scale returns the effective scale factor.
func (t Transform) scale() float64 {
	if t.Scale == 0 {
		return 1
	}
	return t.Scale
}

// Apply maps p from the child frame to the parent frame.
func (t Transform) Apply(p geom.Point) geom.Point {
	s, c := math.Sincos(t.Theta)
	k := t.scale()
	return geom.Pt(
		t.Origin.X+k*(c*p.X-s*p.Y),
		t.Origin.Y+k*(s*p.X+c*p.Y),
	)
}

// Invert maps p from the parent frame back into the child frame.
func (t Transform) Invert(p geom.Point) geom.Point {
	s, c := math.Sincos(t.Theta)
	k := t.scale()
	d := p.Sub(t.Origin)
	return geom.Pt(
		(c*d.X+s*d.Y)/k,
		(-s*d.X+c*d.Y)/k,
	)
}

// Tree is a registry of coordinate frames keyed by GLOB path. The zero
// Tree is not usable; call NewTree. Tree is safe for concurrent use.
type Tree struct {
	mu     sync.RWMutex
	frames map[string]frame
}

type frame struct {
	parent string // "" for roots
	tf     Transform
}

// Sentinel errors.
var (
	ErrUnknownFrame = errors.New("coords: unknown frame")
	ErrNoCommonRoot = errors.New("coords: frames do not share a root")
	ErrDuplicate    = errors.New("coords: frame already defined")
)

// NewTree returns an empty frame tree.
func NewTree() *Tree {
	return &Tree{frames: make(map[string]frame)}
}

// AddRoot registers a root frame (a building). Root frames have no
// parent; conversions between different roots fail with
// ErrNoCommonRoot.
func (t *Tree) AddRoot(name string) error {
	return t.add(name, "", Identity)
}

// AddFrame registers a child frame under parent with the given
// transform (child coordinates → parent coordinates). The parent must
// already exist.
func (t *Tree) AddFrame(name, parent string, tf Transform) error {
	if parent == "" {
		return fmt.Errorf("coords: frame %q needs a parent; use AddRoot for roots", name)
	}
	return t.add(name, parent, tf)
}

func (t *Tree) add(name, parent string, tf Transform) error {
	if name == "" {
		return errors.New("coords: empty frame name")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.frames[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	if parent != "" {
		if _, ok := t.frames[parent]; !ok {
			return fmt.Errorf("%w: parent %q of %q", ErrUnknownFrame, parent, name)
		}
	}
	t.frames[name] = frame{parent: parent, tf: tf}
	return nil
}

// Has reports whether the named frame exists.
func (t *Tree) Has(name string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.frames[name]
	return ok
}

// Frames returns the sorted names of all registered frames.
func (t *Tree) Frames() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.frames))
	for name := range t.frames {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Parent returns the parent frame name of name ("" for roots).
func (t *Tree) Parent(name string) (string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, ok := t.frames[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownFrame, name)
	}
	return f.parent, nil
}

// pathToRoot appends the chain of frame names from name up to its
// root, inclusive, to chain. A frame is only ever added under a parent
// that is already registered, and is never re-parented, so the walk
// always ends at a root. Caller holds the read lock.
func (t *Tree) pathToRoot(chain []string, name string) ([]string, error) {
	for cur := name; cur != ""; {
		f, ok := t.frames[cur]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownFrame, cur)
		}
		chain = append(chain, cur)
		cur = f.parent
	}
	return chain, nil
}

// Convert maps p from frame `from` into frame `to`. Both frames must
// exist and share a root.
func (t *Tree) Convert(p geom.Point, from, to string) (geom.Point, error) {
	if from == to {
		if !t.Has(from) {
			return geom.Point{}, fmt.Errorf("%w: %q", ErrUnknownFrame, from)
		}
		return p, nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()

	// Building frame trees are a few levels deep: the chains fit on the
	// stack.
	var upBuf, downBuf [8]string
	up, err := t.pathToRoot(upBuf[:0], from)
	if err != nil {
		return geom.Point{}, err
	}
	down, err := t.pathToRoot(downBuf[:0], to)
	if err != nil {
		return geom.Point{}, err
	}
	if up[len(up)-1] != down[len(down)-1] {
		return geom.Point{}, fmt.Errorf("%w: %q and %q", ErrNoCommonRoot, from, to)
	}

	// Trim the shared suffix (common ancestors) so we only transform up
	// to the lowest common ancestor and back down.
	for len(up) > 1 && len(down) > 1 && up[len(up)-1] == down[len(down)-1] &&
		up[len(up)-2] == down[len(down)-2] {
		up = up[:len(up)-1]
		down = down[:len(down)-1]
	}

	// Ascend from `from` to the LCA...
	for _, name := range up[:len(up)-1] {
		p = t.frames[name].tf.Apply(p)
	}
	// ...then descend to `to` by inverting each step, root-most first.
	for i := len(down) - 2; i >= 0; i-- {
		p = t.frames[down[i]].tf.Invert(p)
	}
	return p, nil
}

// ConvertRect maps r from one frame to another and returns the MBR of
// the transformed corners (exact for axis-aligned transforms, the
// bounding approximation otherwise — which is precisely the MBR
// semantics the rest of MiddleWhere expects).
func (t *Tree) ConvertRect(r geom.Rect, from, to string) (geom.Rect, error) {
	corners := r.Vertices()
	out := make([]geom.Point, len(corners))
	for i, c := range corners {
		p, err := t.Convert(c, from, to)
		if err != nil {
			return geom.Rect{}, err
		}
		out[i] = p
	}
	return geom.BoundsOfPoints(out...), nil
}

// ConvertPolygon maps every vertex of poly between frames.
func (t *Tree) ConvertPolygon(poly geom.Polygon, from, to string) (geom.Polygon, error) {
	out := make(geom.Polygon, len(poly))
	for i, v := range poly {
		p, err := t.Convert(v, from, to)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// Root returns the root frame name above name.
func (t *Tree) Root(name string) (string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	chain, err := t.pathToRoot(nil, name)
	if err != nil {
		return "", err
	}
	return chain[len(chain)-1], nil
}

// FrameForGLOBPath returns the deepest registered frame that is a
// prefix of the given GLOB path (joined by '/'). This resolves which
// coordinate system a GLOB's coordinates are expressed in when
// intermediate spaces (e.g. individual rooms) have no frame of their
// own.
func (t *Tree) FrameForGLOBPath(segments []string) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := len(segments); i > 0; i-- {
		name := strings.Join(segments[:i], "/")
		if _, ok := t.frames[name]; ok {
			return name, true
		}
	}
	return "", false
}

// Transform returns the registered child→parent transform of a frame
// (Identity for roots).
func (t *Tree) Transform(name string) (Transform, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, ok := t.frames[name]
	if !ok {
		return Transform{}, fmt.Errorf("%w: %q", ErrUnknownFrame, name)
	}
	return f.tf, nil
}
