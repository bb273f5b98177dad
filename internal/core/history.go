package core

import (
	"sort"
	"sync"
	"time"
)

// historyRecorder keeps a bounded per-object trail of fused location
// estimates, one per stored reading, each fused from the rows that
// reading's own insert stored (observeStored). It powers the
// History API (trajectory queries — the natural extension of the
// paper's object tracking, cf. the Location Stack comparison in §10).
type historyRecorder struct {
	mu    sync.Mutex
	depth int
	// trails: object -> estimates, oldest first.
	trails map[string][]Location
}

// historyOption enables history recording.
type historyOption struct{ depth int }

func (o historyOption) apply(s *Service) {
	if o.depth <= 0 {
		return
	}
	s.history = &historyRecorder{
		depth:  o.depth,
		trails: make(map[string][]Location),
	}
}

// WithHistory makes the service record the fused location of an object
// after each of its readings, keeping the most recent depth estimates
// per object. Recording costs one fusion evaluation per insert, the
// same work a trigger evaluation performs.
func WithHistory(depth int) Option { return historyOption{depth: depth} }

// record appends an estimate for the object.
func (h *historyRecorder) record(loc Location) {
	h.mu.Lock()
	defer h.mu.Unlock()
	trail := append(h.trails[loc.Object], loc)
	if len(trail) > h.depth {
		trail = trail[len(trail)-h.depth:]
	}
	h.trails[loc.Object] = trail
}

// History returns the recorded trail for an object, oldest first. It
// is empty when history is disabled or the object has never been
// located.
func (s *Service) History(objectID string) []Location {
	if s.history == nil {
		return nil
	}
	s.history.mu.Lock()
	defer s.history.mu.Unlock()
	return append([]Location(nil), s.history.trails[objectID]...)
}

// HistorySince returns the trail entries at or after the cutoff time.
func (s *Service) HistorySince(objectID string, cutoff time.Time) []Location {
	trail := s.History(objectID)
	i := sort.Search(len(trail), func(i int) bool {
		return !trail[i].At.Before(cutoff)
	})
	return trail[i:]
}

// TrackedObjects returns the IDs with recorded history, sorted.
func (s *Service) TrackedObjects() []string {
	if s.history == nil {
		return nil
	}
	s.history.mu.Lock()
	defer s.history.mu.Unlock()
	out := make([]string, 0, len(s.history.trails))
	for id := range s.history.trails {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
