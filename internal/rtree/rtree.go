// Package rtree implements a Guttman R-tree (R-trees: a dynamic index
// structure for spatial searching, SIGMOD 1984 — the paper's citation
// [4]) with quadratic splitting. The spatial database uses it to index
// the object and sensor tables so region queries and trigger
// evaluation stay sub-linear in the number of stored geometries.
//
// The tree maps minimum bounding rectangles to values of a comparable
// type V: the spatial database stores the record a hit stands for (an
// object row, a trigger, a mobile object's reading record), so a
// search hands back what the caller needs with no lookup by key. It is
// not safe for concurrent use; the spatial database serializes access.
package rtree

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"middlewhere/internal/geom"
)

const (
	// defaultMax is M, the maximum number of entries per node.
	defaultMax = 8
	// defaultMin is m, the minimum number of entries per non-root node
	// (m <= M/2 per Guttman).
	defaultMin = 3
)

// Tree is an R-tree over (Rect, value) entries. The zero value is an
// empty tree ready to use.
type Tree[V comparable] struct {
	root *node[V]
	size int
	// maxEntries/minEntries are fixed at first use; configurable for
	// tests via NewWithDegree.
	maxEntries int
	minEntries int
	// visits counts nodes touched by searches since construction — the
	// raw material for the spatialdb's rtree_node_visits metric. It is
	// atomic because the spatial database allows concurrent readers
	// (RLock) even though mutations are serialized.
	visits atomic.Int64
}

// Visits returns the cumulative number of tree nodes touched by
// SearchIntersect/SearchIntersectFunc/Nearest calls.
// Callers that want per-query costs record the delta around a call.
func (t *Tree[V]) Visits() int64 { return t.visits.Load() }

// New returns an empty R-tree with the default branching factor.
func New[V comparable]() *Tree[V] { return &Tree[V]{} }

// NewWithDegree returns an empty R-tree with custom node capacities.
// min must satisfy 2 <= min <= max/2.
func NewWithDegree[V comparable](min, max int) (*Tree[V], error) {
	if min < 2 || max < 4 || min > max/2 {
		return nil, fmt.Errorf("rtree: invalid degree min=%d max=%d (need 2 <= min <= max/2)", min, max)
	}
	return &Tree[V]{minEntries: min, maxEntries: max}, nil
}

type entry[V comparable] struct {
	rect geom.Rect
	// child is non-nil for interior entries.
	child *node[V]
	// value is set for leaf entries.
	value V
}

type node[V comparable] struct {
	leaf    bool
	entries []entry[V]
}

func (t *Tree[V]) maxE() int {
	if t.maxEntries == 0 {
		return defaultMax
	}
	return t.maxEntries
}

func (t *Tree[V]) minE() int {
	if t.minEntries == 0 {
		return defaultMin
	}
	return t.minEntries
}

// Len returns the number of stored entries.
func (t *Tree[V]) Len() int { return t.size }

// Bounds returns the MBR of everything in the tree, and false when the
// tree is empty.
func (t *Tree[V]) Bounds() (geom.Rect, bool) {
	if t.root == nil || len(t.root.entries) == 0 {
		return geom.Rect{}, false
	}
	return nodeBounds(t.root), true
}

// Insert adds an entry. Duplicate values are allowed (the caller keys
// them); duplicates are removed one at a time by Delete.
//
// The descent records its path and grows each traversed interior
// entry's rectangle by the inserted rectangle, so bounds stay exact
// without any whole-tree pass — keeping Insert O(log n) amortized
// (Guttman's AdjustTree).
func (t *Tree[V]) Insert(r geom.Rect, v V) {
	if t.root == nil {
		t.root = &node[V]{leaf: true}
	}
	// Descend to a leaf, recording the path and expanding entry
	// rectangles on the way down.
	path := []*node[V]{t.root}
	n := t.root
	for !n.leaf {
		best := -1
		bestEnlarge := math.Inf(1)
		bestArea := math.Inf(1)
		for i, e := range n.entries {
			enlarged := e.rect.Union(r).Area() - e.rect.Area()
			area := e.rect.Area()
			if enlarged < bestEnlarge || (enlarged == bestEnlarge && area < bestArea) {
				best, bestEnlarge, bestArea = i, enlarged, area
			}
		}
		n.entries[best].rect = n.entries[best].rect.Union(r)
		n = n.entries[best].child
		path = append(path, n)
	}
	n.entries = append(n.entries, entry[V]{rect: r, value: v})
	t.size++

	// Split overflowing nodes bottom-up along the recorded path.
	for i := len(path) - 1; i >= 0; i-- {
		nd := path[i]
		if len(nd.entries) <= t.maxE() {
			break
		}
		left, right := t.splitNode(nd)
		if i == 0 {
			t.root = &node[V]{
				leaf: false,
				entries: []entry[V]{
					{rect: nodeBounds(left), child: left},
					{rect: nodeBounds(right), child: right},
				},
			}
			break
		}
		parent := path[i-1]
		for j := range parent.entries {
			if parent.entries[j].child == nd {
				parent.entries[j] = entry[V]{rect: nodeBounds(left), child: left}
				break
			}
		}
		parent.entries = append(parent.entries, entry[V]{rect: nodeBounds(right), child: right})
	}
}

// refreshBounds recomputes interior entry rectangles bottom-up.
func refreshBounds[V comparable](n *node[V]) geom.Rect {
	if n.leaf {
		return nodeBounds(n)
	}
	for i := range n.entries {
		n.entries[i].rect = refreshBounds(n.entries[i].child)
	}
	return nodeBounds(n)
}

func (t *Tree[V]) findParent(cur, target *node[V]) *node[V] {
	if cur.leaf {
		return nil
	}
	for _, e := range cur.entries {
		if e.child == target {
			return cur
		}
		if p := t.findParent(e.child, target); p != nil {
			return p
		}
	}
	return nil
}

// splitNode performs Guttman's quadratic split, returning two new
// nodes that partition n's entries.
func (t *Tree[V]) splitNode(n *node[V]) (*node[V], *node[V]) {
	entries := n.entries
	// PickSeeds: the pair wasting the most area together.
	var s1, s2 int
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].rect.Union(entries[j].rect).Area() -
				entries[i].rect.Area() - entries[j].rect.Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	left := &node[V]{leaf: n.leaf, entries: []entry[V]{entries[s1]}}
	right := &node[V]{leaf: n.leaf, entries: []entry[V]{entries[s2]}}
	lb, rb := entries[s1].rect, entries[s2].rect

	rest := make([]entry[V], 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	minE := t.minE()
	for len(rest) > 0 {
		// If one group must take everything to reach minimum, do so.
		if len(left.entries)+len(rest) == minE {
			left.entries = append(left.entries, rest...)
			break
		}
		if len(right.entries)+len(rest) == minE {
			right.entries = append(right.entries, rest...)
			break
		}
		// PickNext: entry with max preference difference.
		bestIdx, bestDiff := 0, -1.0
		for i, e := range rest {
			d1 := lb.Union(e.rect).Area() - lb.Area()
			d2 := rb.Union(e.rect).Area() - rb.Area()
			if diff := math.Abs(d1 - d2); diff > bestDiff {
				bestIdx, bestDiff = i, diff
			}
		}
		e := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		d1 := lb.Union(e.rect).Area() - lb.Area()
		d2 := rb.Union(e.rect).Area() - rb.Area()
		switch {
		case d1 < d2, d1 == d2 && lb.Area() < rb.Area(),
			d1 == d2 && lb.Area() == rb.Area() && len(left.entries) <= len(right.entries):
			left.entries = append(left.entries, e)
			lb = lb.Union(e.rect)
		default:
			right.entries = append(right.entries, e)
			rb = rb.Union(e.rect)
		}
	}
	return left, right
}

func nodeBounds[V comparable](n *node[V]) geom.Rect {
	b := n.entries[0].rect
	for _, e := range n.entries[1:] {
		b = b.Union(e.rect)
	}
	return b
}

// Item is one search result.
type Item[V comparable] struct {
	Rect  geom.Rect
	Value V
}

// SearchIntersect returns all entries whose rectangle intersects q
// (boundary contact included), in no particular order.
func (t *Tree[V]) SearchIntersect(q geom.Rect) []Item[V] {
	var out []Item[V]
	if t.root == nil {
		return nil
	}
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		t.visits.Add(1)
		for _, e := range n.entries {
			if !e.rect.Intersects(q) {
				continue
			}
			if n.leaf {
				out = append(out, Item[V]{Rect: e.rect, Value: e.value})
			} else {
				walk(e.child)
			}
		}
	}
	walk(t.root)
	return out
}

// SearchIntersectFunc calls fn for every entry whose rectangle
// intersects q (boundary contact included), in no particular order,
// without allocating a result slice. fn returning false stops the
// search early. It is the hot-path form of SearchIntersect: the
// candidate pre-filter runs it once per region query, so the result
// slice would otherwise be the query's dominant allocation.
func (t *Tree[V]) SearchIntersectFunc(q geom.Rect, fn func(r geom.Rect, v V) bool) {
	if t.root != nil {
		t.searchFunc(t.root, q, fn)
	}
}

func (t *Tree[V]) searchFunc(n *node[V], q geom.Rect, fn func(r geom.Rect, v V) bool) bool {
	t.visits.Add(1)
	for i := range n.entries {
		e := &n.entries[i]
		if !e.rect.Intersects(q) {
			continue
		}
		if n.leaf {
			if !fn(e.rect, e.value) {
				return false
			}
		} else if !t.searchFunc(e.child, q, fn) {
			return false
		}
	}
	return true
}

// Nearest returns up to k entries closest to point p by rectangle
// distance (0 for rectangles containing p), ordered nearest first.
// It performs a best-first branch-and-bound traversal.
func (t *Tree[V]) Nearest(p geom.Point, k int) []Item[V] {
	if t.root == nil || k <= 0 {
		return nil
	}
	type cand struct {
		dist float64
		item Item[V]
	}
	var results []cand
	// Simple recursive branch and bound with pruning against the
	// current kth distance.
	kth := func() float64 {
		if len(results) < k {
			return math.Inf(1)
		}
		return results[len(results)-1].dist
	}
	insert := func(c cand) {
		i := sort.Search(len(results), func(i int) bool { return results[i].dist > c.dist })
		results = append(results, cand{})
		copy(results[i+1:], results[i:])
		results[i] = c
		if len(results) > k {
			results = results[:k]
		}
	}
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		t.visits.Add(1)
		// Visit children nearest-first for better pruning.
		idx := make([]int, len(n.entries))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return n.entries[idx[a]].rect.DistToPoint(p) < n.entries[idx[b]].rect.DistToPoint(p)
		})
		for _, i := range idx {
			e := n.entries[i]
			d := e.rect.DistToPoint(p)
			if d > kth() {
				continue
			}
			if n.leaf {
				insert(cand{dist: d, item: Item[V]{Rect: e.rect, Value: e.value}})
			} else {
				walk(e.child)
			}
		}
	}
	walk(t.root)
	out := make([]Item[V], len(results))
	for i, c := range results {
		out[i] = c.item
	}
	return out
}

// Delete removes one entry matching (r, v) exactly. It reports
// whether an entry was removed. Only the rectangles on the path to the
// entry's leaf change, so only they are refreshed; an underfull leaf is
// condensed by reinserting the remaining entries of the nodes it
// empties, per Guttman's CondenseTree, and then every rectangle is.
func (t *Tree[V]) Delete(r geom.Rect, v V) bool {
	if t.root == nil {
		return false
	}
	path, idx := t.findLeaf(nil, t.root, r, v)
	if path == nil {
		return false
	}
	leaf := path[len(path)-1]
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	if leaf != t.root && len(leaf.entries) < t.minE() {
		t.condense(leaf)
		// Shrink the root if it has a single interior child.
		for t.root != nil && !t.root.leaf && len(t.root.entries) == 1 {
			t.root = t.root.entries[0].child
		}
		if t.root != nil && len(t.root.entries) == 0 {
			t.root = nil
		}
		if t.root != nil {
			refreshBounds(t.root)
		}
		return true
	}
	if len(t.root.entries) == 0 {
		t.root = nil
		return true
	}
	// Bottom-up along the path; a bound that did not change leaves
	// every bound above it unchanged too.
	for i := len(path) - 2; i >= 0; i-- {
		parent, child := path[i], path[i+1]
		for j := range parent.entries {
			if parent.entries[j].child == child {
				nb := nodeBounds(child)
				if parent.entries[j].rect == nb {
					return true
				}
				parent.entries[j].rect = nb
				break
			}
		}
	}
	return true
}

// findLeaf returns the path from n down to the leaf holding (r, v),
// appended to path, and the entry's index in that leaf; a nil path
// when no leaf under n holds it.
func (t *Tree[V]) findLeaf(path []*node[V], n *node[V], r geom.Rect, v V) ([]*node[V], int) {
	path = append(path, n)
	if n.leaf {
		for i, e := range n.entries {
			if e.value == v && e.rect.Eq(r) {
				return path, i
			}
		}
		return nil, 0
	}
	for _, e := range n.entries {
		if e.rect.ContainsRect(r) || e.rect.Intersects(r) {
			if p, i := t.findLeaf(path, e.child, r, v); p != nil {
				return p, i
			}
		}
	}
	return nil, 0
}

// condense removes underfull nodes on the path from n to the root and
// reinserts their orphaned entries.
func (t *Tree[V]) condense(n *node[V]) {
	var orphans []entry[V]
	for n != t.root && n != nil && len(n.entries) < t.minE() {
		parent := t.findParent(t.root, n)
		if parent == nil {
			break
		}
		for i := range parent.entries {
			if parent.entries[i].child == n {
				parent.entries = append(parent.entries[:i], parent.entries[i+1:]...)
				break
			}
		}
		orphans = append(orphans, n.entries...)
		n = parent
	}
	for _, e := range orphans {
		t.reinsert(e)
	}
}

// reinsert puts an orphaned entry (leaf item or whole subtree) back.
func (t *Tree[V]) reinsert(e entry[V]) {
	if e.child == nil {
		t.size-- // Insert will increment again
		t.Insert(e.rect, e.value)
		return
	}
	// Reinsert every leaf item of the subtree.
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		for _, en := range n.entries {
			if n.leaf {
				t.size--
				t.Insert(en.rect, en.value)
			} else {
				walk(en.child)
			}
		}
	}
	walk(e.child)
}

// All returns every stored item.
func (t *Tree[V]) All() []Item[V] {
	if t.root == nil {
		return nil
	}
	var out []Item[V]
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		for _, e := range n.entries {
			if n.leaf {
				out = append(out, Item[V]{Rect: e.rect, Value: e.value})
			} else {
				walk(e.child)
			}
		}
	}
	walk(t.root)
	return out
}

// checkInvariants validates structural invariants; used by tests.
func (t *Tree[V]) checkInvariants() error {
	if t.root == nil {
		if t.size != 0 {
			return fmt.Errorf("rtree: nil root but size %d", t.size)
		}
		return nil
	}
	count := 0
	var depthOfLeaf = -1
	var walk func(n *node[V], depth int, bound geom.Rect, isRoot bool) error
	walk = func(n *node[V], depth int, bound geom.Rect, isRoot bool) error {
		if !isRoot && len(n.entries) < t.minE() {
			return fmt.Errorf("rtree: underfull node (%d < %d)", len(n.entries), t.minE())
		}
		if len(n.entries) > t.maxE() {
			return fmt.Errorf("rtree: overfull node (%d > %d)", len(n.entries), t.maxE())
		}
		if n.leaf {
			if depthOfLeaf == -1 {
				depthOfLeaf = depth
			} else if depthOfLeaf != depth {
				return fmt.Errorf("rtree: leaves at depths %d and %d", depthOfLeaf, depth)
			}
			count += len(n.entries)
		}
		for _, e := range n.entries {
			if !bound.ContainsRect(e.rect) {
				return fmt.Errorf("rtree: entry %v escapes parent bound %v", e.rect, bound)
			}
			if !n.leaf {
				if got := nodeBounds(e.child); !e.rect.Eq(got) {
					return fmt.Errorf("rtree: stale bound %v (child covers %v)", e.rect, got)
				}
				if err := walk(e.child, depth+1, e.rect, false); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(t.root, 0, nodeBounds(t.root), true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: size %d but %d leaf entries", t.size, count)
	}
	return nil
}
