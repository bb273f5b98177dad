// Package coords implements MiddleWhere's hierarchical coordinate
// systems (§3). Each building, floor and room has its own planar frame
// with an origin, rotation, and scale relative to its parent frame.
// The package stores the frame tree, converts points between any two
// frames that share a root, and fixes each frame's Route to its root
// for the spatial database, which resolves every reading into the root
// (universe) frame.
//
// Frames are named by the GLOB path of the space they belong to, e.g.
// "SC", "SC/3", "SC/3/3216". Conversions apply the transforms one step
// at a time up to the common ancestor and back down.
package coords

import (
	"errors"
	"fmt"
	"math"
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
func (t Transform) Apply(p geom.Point) geom.Point { return t.step().apply(p) }

// step is one child→parent hop with the rotation's sine and cosine
// computed, so Transform.Apply and Route.Apply share one expression and
// agree bit for bit.
type step struct {
	origin          geom.Point
	sin, cos, scale float64
}

func (t Transform) step() step {
	s, c := math.Sincos(t.Theta)
	return step{origin: t.Origin, sin: s, cos: c, scale: t.scale()}
}

func (s step) apply(p geom.Point) geom.Point {
	return geom.Pt(
		s.origin.X+s.scale*(s.cos*p.X-s.sin*p.Y),
		s.origin.Y+s.scale*(s.sin*p.X+s.cos*p.Y),
	)
}

// Route is a frame's fixed path to its root frame: the child→parent
// steps from the frame up to the root's child, in the order Convert
// applies them. Route.Apply(p) equals Convert(p, frame, root) bit for
// bit, because the steps are applied one by one rather than composed
// into a single transform, which would reorder the floating-point
// operations. The zero Route (a root's) is the identity. A Route is
// immutable and safe for concurrent use.
type Route struct {
	steps []step
}

// Apply maps p from the route's frame into its root frame.
func (r Route) Apply(p geom.Point) geom.Point {
	for _, s := range r.steps {
		p = s.apply(p)
	}
	return p
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

// Routes returns every frame's Route to its root, keyed by frame name.
// The map is computed now and shares nothing with t, so frames added
// later are not in it.
func (t *Tree) Routes() map[string]Route {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string]Route, len(t.frames))
	for name := range t.frames {
		var r Route
		for cur := t.frames[name]; cur.parent != ""; cur = t.frames[cur.parent] {
			r.steps = append(r.steps, cur.tf.step())
		}
		out[name] = r
	}
	return out
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
