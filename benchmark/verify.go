package main

import (
	"strings"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/obs"
)

const (
	// locateChecks is how many seeded people the verification pass
	// locates.
	locateChecks = 32
	// locateSlack is how far (feet) a located rectangle may lie from
	// the person's last Ubisense fix.
	locateSlack = 5.0
)

// fedCounters are the federation's degraded-path counters; a run is
// only valid if they did not move.
var fedCounters = []string{"fed_ingest_fallback_local_total", "fed_partial_results_total"}

// verify checks the program's outputs against what the generator sent.
// Every check counts as an attempted operation and every mismatch as a
// failed one. It runs straight after the final flush, while the last
// Ubisense fixes are still inside their 3 s TTL.
func (r *run) verify(fed0 obsSnap) {
	// 1. Every reading sent was acknowledged as stored.
	st := r.st.stream.Stats()
	if st.Accepted != r.sentReadings || st.Rejected != 0 || st.Unacked != 0 {
		missing := int64(r.sentReadings) - int64(st.Accepted)
		if missing < 0 {
			missing = -missing
		}
		r.fail(int(missing)+int(st.Rejected)+st.Unacked,
			"stream accepted %d of %d sent, rejected %d, %d batches unacked",
			st.Accepted, r.sentReadings, st.Rejected, st.Unacked)
	}

	// 2. Every probe got exactly one notification. Probes were counted
	// as attempted when sent.
	r.probes.mu.Lock()
	lost, spurious := r.probes.lost, r.probes.spurious
	r.probes.mu.Unlock()
	if lost+spurious > 0 {
		r.fail(lost+spurious, "%d probes got no notification, %d notifications matched no probe", lost, spurious)
	}

	// 3. Locate answers from readings that were sent and are still
	// live. The program fuses the newest reading of each sensor inside
	// its TTL and returns an intersection of their rectangles, so the
	// answer must lie in (within locateSlack of) one of them; and when
	// none of them conflicts with the person's newest Ubisense fix, it
	// must be that fix.
	local := r.truth.resident(r.wl.federated)
	for i := 0; i < locateChecks && i < len(local); i++ {
		p := local[r.sideRng.Intn(len(local))]
		id := r.c.people[p]
		r.attempted.Add(1)
		asked := time.Now()
		loc, err := r.st.sub.Locate(id)
		live := r.truth.live(p, asked, time.Now())
		if err != nil {
			r.fail(1, "verify locate %s: %v", id, err)
			continue
		}
		rect := geom.R(loc.Rect.MinX, loc.Rect.MinY, loc.Rect.MaxX, loc.Rect.MaxY)
		supported := false
		for _, lr := range live {
			supported = supported || lr.rect.Expand(locateSlack).ContainsRect(rect)
		}
		if !supported {
			r.fail(1, "verify locate %s: %v lies in no live reading's rectangle", id, rect)
		} else if fix, ok := r.truth.undisputedFix(p, live); ok && rect.DistToPoint(fix) > locateSlack {
			r.fail(1, "verify locate %s: %v is %.1f ft from the undisputed last fix %v",
				id, rect, rect.DistToPoint(fix), fix)
		}
		r.dog.tick()
	}

	// 4. Every floor's region scan returns the people the generator
	// put there: a person may be reported on a floor only while some
	// live reading's rectangle reaches into it (fixes by a stairwell
	// and RFID ranges straddle the boundary), and must be reported on
	// it when every live rectangle, a certainly-live Ubisense fix
	// among them, lies inside it.
	index := make(map[string]int, len(r.c.people))
	for i, id := range r.c.people {
		index[id] = i
	}
	width := float64(r.c.size.cols) * roomW
	for f, floor := range r.c.floors {
		asked := time.Now()
		got, err := r.regionQuery(floor)
		answered := time.Now()
		r.attempted.Add(int64(len(r.c.people)))
		if err != nil {
			r.fail(len(r.c.people), "verify region %s: %v", floor, err)
			continue
		}
		for id := range got {
			if _, ok := index[id]; !ok && !strings.HasPrefix(id, "probe-") {
				r.fail(1, "verify region %s: unknown object %s", floor, id)
			}
		}
		bounds := geom.R(0, float64(f)*r.c.floorH, width, float64(f+1)*r.c.floorH)
		for p, id := range r.c.people {
			_, in := got[id]
			may, elsewhere, fix := false, false, false
			for _, lr := range r.truth.live(p, asked, answered) {
				may = may || lr.rect.Intersects(bounds)
				elsewhere = elsewhere || !bounds.ContainsRect(lr.rect)
				fix = fix || (lr.ubi && lr.certain)
			}
			switch {
			case fix && !elsewhere && !in:
				r.fail(1, "verify region %s: %s missing though every live reading lies inside", floor, id)
			case in && !may:
				r.fail(1, "verify region %s: %s reported but no live reading reaches there", floor, id)
			}
		}
		r.dog.tick()
	}

	// 5. The federation never took a degraded path.
	d := obsDelta{from: fed0, to: readObs(obs.Default())}
	for _, name := range fedCounters {
		r.attempted.Add(1)
		if n := d.counter(name); n > 0 {
			r.fail(int(n), "%s moved by %.0f", name, n)
		}
	}
}
