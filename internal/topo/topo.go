// Package topo builds the region connectivity graph of a floor from
// RCC external-connection relations and door data, and computes
// MiddleWhere's path distance (§4.6.1): the length of a traversable
// route between region centres, as opposed to the straight-line
// Euclidean distance. Route finding uses Dijkstra's algorithm over the
// door graph: a step between two regions passes through the midpoint
// of a door connecting them.
package topo

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"middlewhere/internal/geom"
	"middlewhere/internal/rcc"
)

// Region is a node in the connectivity graph.
type Region struct {
	// ID names the region (its GLOB string).
	ID string
	// Rect is the region's MBR in the universe frame.
	Rect geom.Rect
}

// Graph is the traversability graph of a floor. Build it with
// NewGraph, then add regions and doors. Graph is not safe for
// concurrent mutation; the Location Service builds it once per floor
// and only reads afterwards.
type Graph struct {
	regions map[string]Region
	// doors[a][b] lists the doors between regions a and b (symmetric).
	doors map[string]map[string][]rcc.Door
	// nbrs[a] is the key set of doors[a], sorted. AddDoor maintains it
	// so that route search, which expands neighbours in sorted order
	// and runs concurrently from RPC handlers, only reads.
	nbrs map[string][]string
}

// Sentinel errors.
var (
	ErrUnknownRegion = errors.New("topo: unknown region")
	ErrNoRoute       = errors.New("topo: no route")
)

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		regions: make(map[string]Region),
		doors:   make(map[string]map[string][]rcc.Door),
		nbrs:    make(map[string][]string),
	}
}

// AddRegion registers a region. Re-adding an ID overwrites its
// geometry but keeps its doors.
func (g *Graph) AddRegion(id string, r geom.Rect) {
	g.regions[id] = Region{ID: id, Rect: r}
}

// Region returns a region by ID.
func (g *Graph) Region(id string) (Region, bool) {
	r, ok := g.regions[id]
	return r, ok
}

// Regions returns all regions sorted by ID.
func (g *Graph) Regions() []Region {
	out := make([]Region, 0, len(g.regions))
	for _, r := range g.regions {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AddDoor records a door between regions a and b. Both regions must
// exist. Door direction is symmetric.
func (g *Graph) AddDoor(a, b string, d rcc.Door) error {
	if _, ok := g.regions[a]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRegion, a)
	}
	if _, ok := g.regions[b]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRegion, b)
	}
	if g.doors[a] == nil {
		g.doors[a] = make(map[string][]rcc.Door)
	}
	if g.doors[b] == nil {
		g.doors[b] = make(map[string][]rcc.Door)
	}
	g.doors[a][b] = append(g.doors[a][b], d)
	g.doors[b][a] = append(g.doors[b][a], d)
	g.addNeighbour(a, b)
	g.addNeighbour(b, a)
	return nil
}

// addNeighbour inserts b into a's sorted neighbour list if absent.
func (g *Graph) addNeighbour(a, b string) {
	if i, found := slices.BinarySearch(g.nbrs[a], b); !found {
		g.nbrs[a] = slices.Insert(g.nbrs[a], i, b)
	}
}

// Doors returns the doors between two regions.
func (g *Graph) Doors(a, b string) []rcc.Door {
	return g.doors[a][b]
}

// Relation returns the passage-refined relation between two registered
// regions: the RCC-8 relation, plus the passage kind when they are
// externally connected.
func (g *Graph) Relation(a, b string) (rcc.Relation, rcc.Passage, error) {
	ra, ok := g.regions[a]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownRegion, a)
	}
	rb, ok := g.regions[b]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownRegion, b)
	}
	rel := rcc.Relate(ra.Rect, rb.Rect)
	if rel != rcc.EC {
		return rel, rcc.PassageNone, nil
	}
	best := rcc.PassageNone
	for _, d := range g.doors[a][b] {
		if d.Kind > best {
			best = d.Kind
		}
	}
	return rel, best, nil
}

// TraversalPolicy says which passages a route may use.
type TraversalPolicy int

// Traversal policies.
const (
	// FreeOnly routes only through free passages (ECFP).
	FreeOnly TraversalPolicy = iota + 1
	// AllowRestricted also routes through locked doors (ECRP) — for
	// users holding keys/cards.
	AllowRestricted
)

// passable reports whether a door is usable under the policy.
func (p TraversalPolicy) passable(d rcc.Door) bool {
	switch p {
	case FreeOnly:
		return d.Kind == rcc.PassageFree
	case AllowRestricted:
		return d.Kind == rcc.PassageFree || d.Kind == rcc.PassageRestricted
	default:
		return false
	}
}

// Route is a traversable path between two regions.
type Route struct {
	// Regions is the sequence of region IDs from source to target.
	Regions []string
	// Waypoints is the polyline walked: source centre, door midpoints,
	// target centre.
	Waypoints []geom.Point
	// Length is the total length of Waypoints.
	Length float64
}

// PathDistance returns the paper's path-distance between two regions:
// the length of the shortest traversable route from the centre of one
// region to the centre of the other, passing through door midpoints.
// It returns ErrNoRoute when no traversable path exists under the
// policy.
func (g *Graph) PathDistance(from, to string, policy TraversalPolicy) (float64, error) {
	r, err := g.ShortestRoute(from, to, policy)
	if err != nil {
		return 0, err
	}
	return r.Length, nil
}

// EuclideanDistance returns the straight-line distance between the
// centres of the two regions (§4.6.1's other distance measure).
func (g *Graph) EuclideanDistance(from, to string) (float64, error) {
	a, ok := g.regions[from]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownRegion, from)
	}
	b, ok := g.regions[to]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownRegion, to)
	}
	return a.Rect.Center().Dist(b.Rect.Center()), nil
}

// node in the Dijkstra search: a region entered through a particular
// point (region centre for the source, door midpoints elsewhere).
type searchNode struct {
	region string
	at     geom.Point
}

type pqItem struct {
	node searchNode
	dist float64
	prev int // index into the visited list, -1 for the source
	self int // index of this item in the visited list when popped
	seq  int // insertion order, breaks distance ties deterministically
}

type priorityQueue []*pqItem

func (q priorityQueue) Len() int { return len(q) }
func (q priorityQueue) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].seq < q[j].seq
}
func (q priorityQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *priorityQueue) Push(x interface{}) { *q = append(*q, x.(*pqItem)) }
func (q *priorityQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestRoute runs Dijkstra over (region, entry-point) states and
// returns the shortest route from the centre of `from` to the centre
// of `to`.
func (g *Graph) ShortestRoute(from, to string, policy TraversalPolicy) (Route, error) {
	src, ok := g.regions[from]
	if !ok {
		return Route{}, fmt.Errorf("%w: %q", ErrUnknownRegion, from)
	}
	dst, ok := g.regions[to]
	if !ok {
		return Route{}, fmt.Errorf("%w: %q", ErrUnknownRegion, to)
	}
	if from == to {
		c := src.Rect.Center()
		return Route{Regions: []string{from}, Waypoints: []geom.Point{c}, Length: 0}, nil
	}

	var visited []*pqItem
	bestDist := make(map[searchNode]float64)
	pq := &priorityQueue{}
	seq := 0
	start := &pqItem{node: searchNode{region: from, at: src.Rect.Center()}, dist: 0, prev: -1}
	heap.Push(pq, start)
	bestDist[start.node] = 0

	for pq.Len() > 0 {
		cur := heap.Pop(pq).(*pqItem)
		if d, ok := bestDist[cur.node]; ok && cur.dist > d+geom.Eps {
			continue // stale entry
		}
		cur.self = len(visited)
		visited = append(visited, cur)

		if cur.node.region == to {
			// Close the route at the target centre.
			total := cur.dist + cur.node.at.Dist(dst.Rect.Center())
			return g.assembleRoute(visited, cur, dst, total), nil
		}

		// Expand neighbours in sorted order so equal-cost ties always
		// resolve the same way (map iteration order is randomized).
		doors := g.doors[cur.node.region]
		for _, next := range g.nbrs[cur.node.region] {
			for _, d := range doors[next] {
				if !policy.passable(d) {
					continue
				}
				mid := d.Span.Midpoint()
				nn := searchNode{region: next, at: mid}
				nd := cur.dist + cur.node.at.Dist(mid)
				if old, ok := bestDist[nn]; !ok || nd < old-geom.Eps {
					bestDist[nn] = nd
					seq++
					heap.Push(pq, &pqItem{node: nn, dist: nd, prev: cur.self, seq: seq})
				}
			}
		}
	}
	return Route{}, fmt.Errorf("%w: %s -> %s", ErrNoRoute, from, to)
}

// assembleRoute walks the predecessor chain back to the source.
func (g *Graph) assembleRoute(visited []*pqItem, final *pqItem, dst Region, total float64) Route {
	var chain []*pqItem
	for it := final; it != nil; {
		chain = append(chain, it)
		if it.prev < 0 {
			break
		}
		it = visited[it.prev]
	}
	// Reverse.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	rt := Route{Length: total}
	for _, it := range chain {
		rt.Regions = append(rt.Regions, it.node.region)
		rt.Waypoints = append(rt.Waypoints, it.node.at)
	}
	rt.Waypoints = append(rt.Waypoints, dst.Rect.Center())
	return rt
}

// Reachable returns the IDs of all regions reachable from start under
// the policy, including start itself, sorted.
func (g *Graph) Reachable(start string, policy TraversalPolicy) ([]string, error) {
	if _, ok := g.regions[start]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRegion, start)
	}
	seen := map[string]bool{start: true}
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for next, doors := range g.doors[cur] {
			if seen[next] {
				continue
			}
			for _, d := range doors {
				if policy.passable(d) {
					seen[next] = true
					queue = append(queue, next)
					break
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, nil
}

// AutoConnect scans all region pairs and records an ECNP "wall"
// adjacency for externally connected pairs that have no door yet. It
// returns the number of EC pairs found. This lets the rule engine see
// the full EC relation even where no door exists.
func (g *Graph) AutoConnect() int {
	ids := make([]string, 0, len(g.regions))
	for id := range g.regions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	count := 0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := g.regions[ids[i]], g.regions[ids[j]]
			if rcc.Relate(a.Rect, b.Rect) == rcc.EC {
				count++
			}
		}
	}
	return count
}

// Infinity is a convenience for comparing unreachable distances.
var Infinity = math.Inf(1)
