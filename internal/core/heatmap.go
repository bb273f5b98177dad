package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"middlewhere/internal/fusion"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/obs"
	"middlewhere/internal/spatialdb"
)

// Heatmap metrics. The histogram observes every call — error and
// empty-region paths included — so latency percentiles never silently
// exclude the cheap exits. candidates/culled expose the support
// pre-filter's selectivity: candidates counts objects the per-shard
// support R-trees returned for inspection, culled the subset rejected
// by the live-support gate before any grid fusion ran.
var (
	mHeatmapUs      = obs.Default().Histogram("core_heatmap_us")
	mHeatCandidates = obs.Default().Counter("core_heatmap_candidates")
	mHeatCulled     = obs.Default().Counter("core_heatmap_culled")
)

// Heatmap is a crowd-density grid over a region: Cells[r][c] is the
// expected number of people in that cell — the sum over every mobile
// object of its fused probability of being there. Cell (0,0) is the
// region's min corner; rows advance along Y, columns along X.
type Heatmap struct {
	Region geom.Rect   `json:"region"`
	Rows   int         `json:"rows"`
	Cols   int         `json:"cols"`
	Cells  [][]float64 `json:"cells"`
	// Objects is the number of mobile objects that contributed mass.
	Objects int `json:"objects"`
	// At is the query's evaluation time.
	At time.Time `json:"at"`
}

// Total returns the expected total occupancy over the whole grid.
func (h *Heatmap) Total() float64 {
	var t float64
	for _, row := range h.Cells {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Peak returns the densest cell and its expected occupancy.
func (h *Heatmap) Peak() (row, col int, density float64) {
	for r, cells := range h.Cells {
		for c, v := range cells {
			if v > density {
				row, col, density = r, c, v
			}
		}
	}
	return
}

// objGrid is one object's contribution to the heatmap: a clipped
// rasterization covering only the cell window [r0,r1]x[c0,c1] its
// support touches, so memory and fusion work scale with the support's
// footprint, not the whole grid.
type objGrid struct {
	cells          []float64
	r0, c0, r1, c1 int
}

// OccupancyHeatmap answers the crowd-monitoring query "how many people
// are where in region R?": the region is split into a rows×cols grid
// and every mobile object's fused location probability is integrated
// into the cells, yielding an expected-occupancy density map (the
// city-scale analogue of §1.1's "who is in room R?", aggregated
// instead of enumerated).
//
// The scan is sublinear in the total object count: candidates come
// from the per-shard support R-trees (Snapshot.SupportCandidates)
// instead of iterating every mobile object, each candidate is gated on
// its live reading support, and rasterization is clipped to the cells
// that support actually touches (DESIGN.md §17). An object whose
// readings place no rectangle over the region contributes nothing —
// the support-gate semantics that makes the pre-filter exact.
//
// The whole scan is pinned to one database snapshot, so the map is a
// consistent cut: each object is evaluated against the same set of
// completed insert batches. The snapshot is closed once the candidates
// are collected, so grid fusion holds no table locks.
// Candidates fan out across the service's worker pool exactly like
// ObjectsInRegion; per-object results land in index-addressed slots,
// so the merged grid is deterministic.
func (s *Service) OccupancyHeatmap(region glob.GLOB, rows, cols int) (*Heatmap, error) {
	start := time.Now()
	defer func() {
		mHeatmapUs.Observe(float64(time.Since(start).Microseconds()))
	}()
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("heatmap: non-positive grid %dx%d", rows, cols)
	}
	rect, err := s.db.ResolveGLOB(region)
	if err != nil {
		return nil, fmt.Errorf("heatmap: %w", err)
	}
	snap := s.db.Snapshot()
	cands := snap.SupportCandidates(rect)
	snap.Close()
	return s.heatmapOn(snap, rect, rows, cols, s.now(), cands), nil
}

// heatmapOn computes the occupancy grid over rect from the candidates
// cands of one snapshot. Each candidate is gated on its live
// support, so any superset of the support candidates — every mobile
// object, in the equivalence tests — gives a cell-identical grid, in
// any order: heatmapOn sorts cands by ID in place, so the float sums
// of the merge run in one order.
func (s *Service) heatmapOn(snap *spatialdb.Snapshot, rect geom.Rect, rows, cols int, now time.Time, cands []spatialdb.Candidate) *Heatmap {
	h := &Heatmap{Region: rect, Rows: rows, Cols: cols, At: now}
	h.Cells = make([][]float64, rows)
	for r := range h.Cells {
		h.Cells[r] = make([]float64, cols)
	}
	if rect.Area() <= 0 {
		// Degenerate region: every cell has zero area, so no object
		// can deposit mass (ProbRegion of a zero-area cell is 0).
		return h
	}

	mHeatCandidates.Add(uint64(len(cands)))
	slices.SortFunc(cands, func(a, b spatialdb.Candidate) int { return strings.Compare(a.ID, b.ID) })

	cellW := rect.Width() / float64(cols)
	cellH := rect.Height() / float64(rows)
	grids := make([]objGrid, len(cands)) // index-addressed, deterministic merge
	var culled int
	eval := func(i int) {
		e := s.fusionStateSnap(snap, &cands[i], now)
		if !e.supports(rect) {
			return
		}
		grids[i] = rasterizeClipped(snap.Universe(), e.readings, e.support, rect, rows, cols, cellW, cellH)
	}
	if s.pool != nil && len(cands) >= parallelFanThreshold {
		s.pool.fanOutChunked(len(cands), s.parallelism, eval)
	} else {
		for i := range cands {
			eval(i)
		}
	}

	for _, g := range grids {
		if g.cells == nil {
			culled++
			continue
		}
		h.Objects++
		w := g.c1 - g.c0 + 1
		for r := g.r0; r <= g.r1; r++ {
			for c := g.c0; c <= g.c1; c++ {
				h.Cells[r][c] += g.cells[(r-g.r0)*w+(c-g.c0)]
			}
		}
	}
	mHeatCulled.Add(uint64(culled))
	return h
}

// rasterizeClipped integrates one object's probability mass into the
// grid cells its support touches. The cell window is derived from the
// support clipped to the region, widened by one cell so boundary
// contact (Intersects includes it) is never missed, then each cell in
// the window is tested exactly — cells outside the support stay zero,
// which keeps clipped and full-grid rasterization cell-identical.
// When the support fits a single cell the window degenerates to that
// cell and the whole rasterization is one ProbRegion call.
func rasterizeClipped(universe geom.Rect, readings []fusion.Reading, sup, rect geom.Rect, rows, cols int, cellW, cellH float64) objGrid {
	sw, _ := sup.Intersect(rect)
	c0 := clampCell(int(math.Floor((sw.Min.X-rect.Min.X)/cellW))-1, cols)
	c1 := clampCell(int(math.Floor((sw.Max.X-rect.Min.X)/cellW))+1, cols)
	r0 := clampCell(int(math.Floor((sw.Min.Y-rect.Min.Y)/cellH))-1, rows)
	r1 := clampCell(int(math.Floor((sw.Max.Y-rect.Min.Y)/cellH))+1, rows)
	g := objGrid{r0: r0, c0: c0, r1: r1, c1: c1}
	w := c1 - c0 + 1
	g.cells = make([]float64, (r1-r0+1)*w)
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			cell := geom.R(
				rect.Min.X+float64(c)*cellW,
				rect.Min.Y+float64(r)*cellH,
				rect.Min.X+float64(c+1)*cellW,
				rect.Min.Y+float64(r+1)*cellH,
			)
			if !cell.Intersects(sup) {
				continue
			}
			g.cells[(r-r0)*w+(c-c0)] = fusion.ProbRegion(universe, readings, cell)
		}
	}
	return g
}

// clampCell clamps a cell index to [0, n-1].
func clampCell(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
