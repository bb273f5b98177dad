// Package fusion implements MiddleWhere's multi-sensor location fusion
// (§4.1): the Bayesian combination of sensor MBRs into a spatial
// probability distribution, the containment lattice of rectangles, the
// conflict-resolution rules for disjoint readings, single-location
// inference (§4.2), and the classification of the probability space
// into bands (§4.4).
//
// # Probability model
//
// Each reading i places the object in rectangle Ai with per-reading
// probabilities p_i (the sensor reports Ai when the object is there —
// model.ErrorModel.DetectProb after temporal degradation) and q_i (the
// sensor reports Ai when the object is elsewhere —
// model.ErrorModel.FalseProb). Readings are conditionally independent
// given the object's true cell, and absent movement data the prior is
// uniform over the universe U (the paper's assumption, §4.1.2).
//
// ProbRegion evaluates P(person in R | all readings) by exact Bayes:
//
//	P(s_i | R)  = [p_i·aInt + q_i·(aR − aInt)] / aR
//	P(s_i | ¬R) = [p_i·(aAi − aInt) + q_i·(aU − aR − aAi + aInt)] / (aU − aR)
//	P(R) = aR/aU
//
// with aInt = area(Ai ∩ R), combined as posterior odds:
//
//	P = 1 / (1 + (1 − P(R))/P(R) · Π_i P(s_i | ¬R)/P(s_i | R))
//
// The odds product of many readings with small rectangles leaves the
// float64 range quickly, so ProbRegion keeps it as a mantissa and a
// binary exponent: whenever the running product leaves [2⁻⁵⁰⁰, 2⁵⁰⁰]
// math.Frexp folds its exponent out, and the result is
// 1/(1 + Ldexp(mantissa, exponent)). This takes no logarithm, and it
// is no less accurate than summing logarithms, whose own rounding it
// avoids (DESIGN.md §4).
//
// This reproduces the paper's Eq. 4 and Eq. 5 exactly. The paper's
// printed Eq. 6 and Eq. 7 drop the (aU − aR) normalizer from the ¬R
// branch and are therefore inconsistent with its own Eq. 4/5
// (substituting n=2, R=B into the printed Eq. 7 does not yield Eq. 4);
// ProbRegionPrinted implements the literal printed Eq. 7 for
// comparison, and the exact form is used everywhere else. See
// DESIGN.md §4.
package fusion

import (
	"math"

	"middlewhere/internal/geom"
)

// Reading is one sensor observation prepared for fusion: the MBR of
// the sensed region in universe coordinates and the degraded
// per-reading probabilities.
type Reading struct {
	// ID identifies the source sensor (for diagnostics and conflict
	// reporting).
	ID string
	// Rect is the sensed region as an MBR in the universe frame.
	Rect geom.Rect
	// P is p_i: P(sensor reports Rect | object in Rect), net of
	// temporal degradation.
	P float64
	// Q is q_i: P(sensor reports Rect | object not in Rect).
	Q float64
	// Moving records whether this reading's rectangle has been moving
	// over recent updates; the conflict rules prefer moving readings.
	Moving bool
}

// Informative reports whether the reading carries signal: p > q, the
// reinforcement condition of §4.1.2.
func (r Reading) Informative() bool { return r.P > r.Q }

// ProbRegion returns P(object in region | readings) under the model
// described in the package comment. Conventions at the boundaries:
// an empty region has probability 0; a region covering the whole
// universe has probability 1; with no readings the uniform prior
// aR/aU is returned.
func ProbRegion(universe geom.Rect, readings []Reading, region geom.Rect) float64 {
	region, ok := region.Intersect(universe)
	if !ok {
		return 0
	}
	aU := universe.Area()
	if aU <= 0 {
		return 0
	}
	aR := region.Area()
	if aR <= 0 {
		return 0
	}
	if aU-aR <= geom.Eps {
		return 1
	}
	prior := aR / aU
	if len(readings) == 0 {
		return prior
	}

	// Accumulate the posterior odds against R, P(¬R)/P(R) · Π pOut/pIn,
	// as ratio·2^exp (see the package comment).
	ratio, exp := quotient(1-prior, prior)
	for _, rd := range readings {
		aAi := rd.Rect.IntersectionArea(universe)
		aInt := rd.Rect.IntersectionArea(region)
		pIn := (rd.P*aInt + rd.Q*(aR-aInt)) / aR
		pOut := (rd.P*(aAi-aInt) + rd.Q*(aU-aR-aAi+aInt)) / (aU - aR)
		if pIn <= 0 && pOut <= 0 {
			// The reading is impossible under both hypotheses (p=q=0);
			// it carries no information.
			continue
		}
		if pIn <= 0 {
			return 0
		}
		if pOut <= 0 {
			return 1
		}
		f := pOut / pIn
		if f < oddsMin || f > oddsMax {
			// The quotient itself may have left the float64 range.
			var e int
			f, e = quotient(pOut, pIn)
			exp += e
		}
		ratio *= f
		if ratio < oddsMin || ratio > oddsMax {
			var e int
			ratio, e = math.Frexp(ratio)
			exp += e
		}
	}
	// An exponent past the float64 range gives odds of +Inf (P = 0)
	// or 0 (P = 1).
	return 1 / (1 + math.Ldexp(ratio, exp))
}

// oddsMin and oddsMax bound ProbRegion's running odds product: once it
// leaves [2⁻⁵⁰⁰, 2⁵⁰⁰] its exponent is folded out, so that the next
// factor, also within those bounds, can neither underflow nor
// overflow it.
const (
	oddsMin = 0x1p-500
	oddsMax = 0x1p500
)

// quotient returns num/den as a mantissa ratio in (1/2, 2) and a binary
// exponent, without overflow or underflow for any positive finite
// operands.
func quotient(num, den float64) (float64, int) {
	fn, en := math.Frexp(num)
	fd, ed := math.Frexp(den)
	return fn / fd, en - ed
}

// SupportBounds returns the bounding box of the readings' rectangles —
// the object's fusion support. Under the support-gated aggregate query
// semantics (DESIGN.md §17) an object contributes occupancy mass only
// where this box intersects the queried region: outside it every
// reading's evidence is pure false-report noise (q_i), which the
// aggregate queries define as zero contribution so that the per-shard
// support index can answer "who might be here?" exactly. ok is false
// when there are no readings.
func SupportBounds(readings []Reading) (geom.Rect, bool) {
	if len(readings) == 0 {
		return geom.Rect{}, false
	}
	u := readings[0].Rect
	for _, rd := range readings[1:] {
		u = u.Union(rd.Rect)
	}
	return u, true
}

// ProbRegionPrinted evaluates the paper's Eq. 7 exactly as printed:
//
//	     Π_i [p_i·aInt + q_i·(aR − aInt)]
//	P = ----------------------------------------------------------
//	     Π_i [p_i·aInt + q_i·(aR − aInt)]
//	   + Π_i [p_i·(aAi − aInt) + q_i·(aU − aAi + aInt)]
//
// It is retained for comparison experiments only (see V3 in
// EXPERIMENTS.md); the exact form in ProbRegion is used by the
// middleware.
func ProbRegionPrinted(universe geom.Rect, readings []Reading, region geom.Rect) float64 {
	region, ok := region.Intersect(universe)
	if !ok {
		return 0
	}
	aU := universe.Area()
	aR := region.Area()
	if aU <= 0 || aR <= 0 {
		return 0
	}
	num, alt := 1.0, 1.0
	for _, rd := range readings {
		aAi := rd.Rect.IntersectionArea(universe)
		aInt := rd.Rect.IntersectionArea(region)
		num *= rd.P*aInt + rd.Q*(aR-aInt)
		alt *= rd.P*(aAi-aInt) + rd.Q*(aU-aAi+aInt)
	}
	if num+alt <= 0 {
		return 0
	}
	return num / (num + alt)
}

// SingleSensorProb is the paper's Eq. 5: the probability the object is
// in the sensed rectangle given only that one reading. It is the
// standalone score the conflict-resolution rule 2 compares.
func SingleSensorProb(universe geom.Rect, rd Reading) float64 {
	return ProbRegion(universe, []Reading{rd}, rd.Rect)
}

// ContainedPairProb is the paper's Eq. 4 closed form: the probability
// the object is in outer rectangle B given inner reading s1 (rectangle
// A ⊂ B) and outer reading s2 (rectangle B). Exposed for the V1
// verification experiment; general queries go through ProbRegion.
func ContainedPairProb(universe geom.Rect, inner, outer Reading) float64 {
	aU := universe.Area()
	aA := inner.Rect.Area()
	aB := outer.Rect.Area()
	num := (inner.P*aA + inner.Q*(aB-aA)) * outer.P
	den := num + inner.Q*outer.Q*(aU-aB)
	if den <= 0 {
		return 0
	}
	return num / den
}
