package fusion

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"middlewhere/internal/geom"
)

var universe = geom.R(0, 0, 100, 100) // 10,000 sq units

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

func TestProbRegionBoundaries(t *testing.T) {
	rd := Reading{ID: "s", Rect: geom.R(10, 10, 20, 20), P: 0.9, Q: 0.01}
	// Empty region.
	if got := ProbRegion(universe, []Reading{rd}, geom.R(200, 200, 300, 300)); got != 0 {
		t.Errorf("outside-universe region = %v, want 0", got)
	}
	if got := ProbRegion(universe, []Reading{rd}, geom.R(5, 5, 5, 5)); got != 0 {
		t.Errorf("degenerate region = %v, want 0", got)
	}
	// Whole universe.
	if got := ProbRegion(universe, []Reading{rd}, universe); got != 1 {
		t.Errorf("universe region = %v, want 1", got)
	}
	// No readings: uniform prior.
	if got := ProbRegion(universe, nil, geom.R(0, 0, 10, 100)); !almostEq(got, 0.1) {
		t.Errorf("prior = %v, want 0.1", got)
	}
	// Degenerate universe.
	if got := ProbRegion(geom.Rect{}, []Reading{rd}, geom.R(0, 0, 1, 1)); got != 0 {
		t.Errorf("zero universe = %v, want 0", got)
	}
}

func TestProbRegionMatchesEq5(t *testing.T) {
	// Eq. 5: P(B|s_B) = aB·p / (aB·p + q·(aU − aB)).
	rd := Reading{ID: "s2", Rect: geom.R(0, 0, 10, 10), P: 0.9, Q: 0.05}
	aB, aU := 100.0, 10000.0
	want := aB * rd.P / (aB*rd.P + rd.Q*(aU-aB))
	if got := SingleSensorProb(universe, rd); !almostEq(got, want) {
		t.Errorf("SingleSensorProb = %v, want Eq.5 value %v", got, want)
	}
}

func TestProbRegionMatchesEq4(t *testing.T) {
	// Case 1 (Fig. 2): inner rectangle A inside outer rectangle B.
	inner := Reading{ID: "s1", Rect: geom.R(2, 2, 6, 6), P: 0.8, Q: 0.05}   // area 16
	outer := Reading{ID: "s2", Rect: geom.R(0, 0, 10, 10), P: 0.9, Q: 0.02} // area 100
	want := ContainedPairProb(universe, inner, outer)
	got := ProbRegion(universe, []Reading{inner, outer}, outer.Rect)
	if !almostEq(got, want) {
		t.Errorf("ProbRegion = %v, want Eq.4 closed form %v", got, want)
	}
	// Sanity: closed form expands to the printed Eq. 4.
	aU, aA, aB := 10000.0, 16.0, 100.0
	num := (inner.P*aA + inner.Q*(aB-aA)) * outer.P
	wantManual := num / (num + inner.Q*outer.Q*(aU-aB))
	if !almostEq(want, wantManual) {
		t.Errorf("ContainedPairProb = %v, manual Eq.4 = %v", want, wantManual)
	}
}

func TestReinforcementInequality(t *testing.T) {
	// V1: the paper verifies P(B | s1,A, s2,B) > P(B | s2,B) whenever
	// p1 > q1 — two consistent readings reinforce each other.
	inner := Reading{ID: "s1", Rect: geom.R(2, 2, 6, 6), P: 0.8, Q: 0.05}
	outer := Reading{ID: "s2", Rect: geom.R(0, 0, 10, 10), P: 0.9, Q: 0.02}
	both := ProbRegion(universe, []Reading{inner, outer}, outer.Rect)
	single := SingleSensorProb(universe, outer)
	if both <= single {
		t.Errorf("reinforcement failed: both=%v single=%v", both, single)
	}
	// With an uninformative inner sensor (p == q) the inequality
	// becomes equality.
	flat := inner
	flat.P, flat.Q = 0.3, 0.3
	bothFlat := ProbRegion(universe, []Reading{flat, outer}, outer.Rect)
	if !almostEq(bothFlat, single) {
		t.Errorf("uninformative reading changed probability: %v vs %v", bothFlat, single)
	}
	// With an anti-informative inner sensor (p < q) it reverses.
	anti := inner
	anti.P, anti.Q = 0.05, 0.8
	bothAnti := ProbRegion(universe, []Reading{anti, outer}, outer.Rect)
	if bothAnti >= single {
		t.Errorf("anti-informative reading should reduce probability: %v vs %v", bothAnti, single)
	}
}

func TestIntersectionCaseEq6Shape(t *testing.T) {
	// Case 2 (Fig. 3): overlapping rectangles A and B with
	// intersection C. The intersection must be the most likely of the
	// three disjoint cells A\C, C, B\C.
	a := Reading{ID: "sA", Rect: geom.R(0, 0, 10, 10), P: 0.9, Q: 0.02}
	b := Reading{ID: "sB", Rect: geom.R(5, 0, 15, 10), P: 0.9, Q: 0.02}
	c := geom.R(5, 0, 10, 10)
	readings := []Reading{a, b}
	pC := ProbRegion(universe, readings, c)
	pAonly := ProbRegion(universe, readings, geom.R(0, 0, 5, 10))
	pBonly := ProbRegion(universe, readings, geom.R(10, 0, 15, 10))
	if pC <= pAonly || pC <= pBonly {
		t.Errorf("intersection not dominant: C=%v A\\C=%v B\\C=%v", pC, pAonly, pBonly)
	}
	// And the printed Eq. 6/7 agrees qualitatively.
	pCPrinted := ProbRegionPrinted(universe, readings, c)
	pAPrinted := ProbRegionPrinted(universe, readings, geom.R(0, 0, 5, 10))
	if pCPrinted <= pAPrinted {
		t.Errorf("printed form intersection not dominant: %v vs %v", pCPrinted, pAPrinted)
	}
}

func TestProbRegionManyReadingsStable(t *testing.T) {
	// 100 consistent readings must drive the probability to ~1 without
	// underflow.
	target := geom.R(40, 40, 45, 45)
	var readings []Reading
	for i := 0; i < 100; i++ {
		readings = append(readings, Reading{
			ID: "s", Rect: geom.R(38, 38, 47, 47), P: 0.9, Q: 0.01,
		})
	}
	got := ProbRegion(universe, readings, geom.R(38, 38, 47, 47))
	if got < 0.999999 {
		t.Errorf("many consistent readings = %v, want ~1", got)
	}
	if math.IsNaN(got) || got > 1 {
		t.Errorf("unstable value %v", got)
	}
	// The small target inside keeps a sane probability too.
	inner := ProbRegion(universe, readings, target)
	if inner < 0 || inner > 1 || math.IsNaN(inner) {
		t.Errorf("inner = %v", inner)
	}
}

func TestProbRegionImpossibleEvidence(t *testing.T) {
	// A sensor with p=1, q=0 is infallible: a region disjoint from its
	// rectangle has probability 0, and its own rectangle probability 1.
	rd := Reading{ID: "oracle", Rect: geom.R(10, 10, 20, 20), P: 1, Q: 0}
	if got := ProbRegion(universe, []Reading{rd}, geom.R(50, 50, 60, 60)); got != 0 {
		t.Errorf("disjoint region with oracle = %v, want 0", got)
	}
	if got := ProbRegion(universe, []Reading{rd}, rd.Rect); got != 1 {
		t.Errorf("oracle rect = %v, want 1", got)
	}
	// A p=q=0 reading is impossible under both hypotheses and must be
	// ignored rather than poison the result.
	dead := Reading{ID: "dead", Rect: geom.R(0, 0, 1, 1), P: 0, Q: 0}
	got := ProbRegion(universe, []Reading{dead}, geom.R(0, 0, 10, 10))
	if !almostEq(got, 0.01) { // falls back to the prior 100/10000
		t.Errorf("dead reading = %v, want prior 0.01", got)
	}
}

func TestReadingInformative(t *testing.T) {
	if !(Reading{P: 0.9, Q: 0.1}).Informative() {
		t.Error("p>q should be informative")
	}
	if (Reading{P: 0.1, Q: 0.1}).Informative() {
		t.Error("p==q should not be informative")
	}
}

func TestQuickProbRegionInUnitInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		_ = seed
		n := 1 + rng.Intn(6)
		readings := make([]Reading, n)
		for i := range readings {
			x, y := rng.Float64()*90, rng.Float64()*90
			readings[i] = Reading{
				ID:   "r",
				Rect: geom.R(x, y, x+1+rng.Float64()*20, y+1+rng.Float64()*20),
				P:    rng.Float64(),
				Q:    rng.Float64(),
			}
		}
		x, y := rng.Float64()*90, rng.Float64()*90
		region := geom.R(x, y, x+1+rng.Float64()*30, y+1+rng.Float64()*30)
		p := ProbRegion(universe, readings, region)
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickReinforcementProperty(t *testing.T) {
	// Adding an informative reading whose rectangle is contained in R
	// never decreases P(R).
	rng := rand.New(rand.NewSource(22))
	f := func(seed int64) bool {
		_ = seed
		region := geom.R(20, 20, 60, 60)
		base := Reading{
			ID: "base", Rect: geom.R(10, 10, 70, 70),
			P: 0.5 + rng.Float64()*0.5, Q: rng.Float64() * 0.2,
		}
		x, y := 20+rng.Float64()*30, 20+rng.Float64()*30
		extra := Reading{
			ID: "extra", Rect: geom.R(x, y, x+rng.Float64()*9+1, y+rng.Float64()*9+1),
			P: 0.5 + rng.Float64()*0.5, Q: rng.Float64() * 0.2,
		}
		if !extra.Informative() {
			return true
		}
		before := ProbRegion(universe, []Reading{base}, region)
		after := ProbRegion(universe, []Reading{base, extra}, region)
		return after >= before-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickComplementConsistency(t *testing.T) {
	// P(R) + P(U \ R) should equal 1 when U\R is itself a rectangle
	// (split the universe by a vertical line).
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		_ = seed
		split := 10 + rng.Float64()*80
		left := geom.R(0, 0, split, 100)
		right := geom.R(split, 0, 100, 100)
		var readings []Reading
		for i := 0; i < 1+rng.Intn(4); i++ {
			x, y := rng.Float64()*80, rng.Float64()*80
			readings = append(readings, Reading{
				ID: "r", Rect: geom.R(x, y, x+rng.Float64()*20+1, y+rng.Float64()*20+1),
				P: 0.4 + rng.Float64()*0.6, Q: rng.Float64() * 0.3,
			})
		}
		pl := ProbRegion(universe, readings, left)
		pr := ProbRegion(universe, readings, right)
		return math.Abs(pl+pr-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// probRegionLogSpace is ProbRegion as it was evaluated before the
// odds-product kernel, kept verbatim as the reference: the same Bayes
// factors, accumulated as sums of logarithms.
func probRegionLogSpace(universe geom.Rect, readings []Reading, region geom.Rect) float64 {
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

	// Work in log space: the likelihood products underflow quickly for
	// many readings with small rectangles.
	logIn := math.Log(prior)
	logOut := math.Log(1 - prior)
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
		logIn += math.Log(pIn)
		logOut += math.Log(pOut)
	}
	// P = e^logIn / (e^logIn + e^logOut), computed stably.
	d := logOut - logIn
	if d > 700 {
		return 0
	}
	if d < -700 {
		return 1
	}
	return 1 / (1 + math.Exp(d))
}

// randomCase draws a universe-clipped query against n readings: sensor
// rectangles from room-sized down to tag-sized, p in (0, 1] and q
// either a raw false-report rate or one scaled by area(A)/area(U) as
// FromReadings scales it. With cluster set, every reading sits in one
// 3 m spot, so a few hundred of them drive the likelihood products far
// below the float64 range.
func randomCase(rng *rand.Rand, uni geom.Rect, n int, cluster bool) ([]Reading, geom.Rect) {
	cx, cy := uni.Min.X+rng.Float64()*uni.Width(), uni.Min.Y+rng.Float64()*uni.Height()
	readings := make([]Reading, n)
	for i := range readings {
		x, y := uni.Min.X+rng.Float64()*uni.Width(), uni.Min.Y+rng.Float64()*uni.Height()
		w, h := 0.2+rng.Float64()*30, 0.2+rng.Float64()*30
		if cluster {
			x, y = cx+rng.Float64()*3, cy+rng.Float64()*3
			w, h = 0.2+rng.Float64()*2, 0.2+rng.Float64()*2
		}
		rect := geom.R(x, y, x+w, y+h)
		q := rng.Float64() * 0.3
		if rng.Intn(2) == 0 {
			q *= rect.Area() / uni.Area()
		}
		readings[i] = Reading{ID: "r", Rect: rect, P: 0.05 + rng.Float64()*0.95, Q: q}
	}
	x, y := uni.Min.X+rng.Float64()*uni.Width(), uni.Min.Y+rng.Float64()*uni.Height()
	if cluster && rng.Intn(2) == 0 {
		x, y = cx-rng.Float64()*2, cy-rng.Float64()*2
	}
	size := []float64{1, 5, 40, 400}[rng.Intn(4)]
	return readings, geom.R(x, y, x+rng.Float64()*size+0.1, y+rng.Float64()*size+0.1)
}

// TestProbRegionMatchesLogSpace pins the odds-product kernel to the
// log-space reference on seeded queries: room-scale and city-scale
// universes, up to 12 scattered readings, and 300-reading clusters
// whose likelihood products underflow float64.
func TestProbRegionMatchesLogSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	universes := []geom.Rect{universe, geom.R(0, 0, 6000, 4000)}
	var worst float64
	for i := 0; i < 20000; i++ {
		uni := universes[i%len(universes)]
		n, cluster := rng.Intn(13), false
		if i%10 == 0 {
			n, cluster = 300, true
		}
		readings, region := randomCase(rng, uni, n, cluster)
		got, want := ProbRegion(uni, readings, region), probRegionLogSpace(uni, readings, region)
		d := math.Abs(got - want)
		if !(d <= 1e-12) {
			t.Fatalf("case %d (%d readings, region %v): ProbRegion = %v, log space = %v", i, n, region, got, want)
		}
		worst = math.Max(worst, d)
	}
	t.Logf("max |ProbRegion − log space| = %.3g", worst)
}

// FuzzProbRegion feeds the kernel adversarial but well-formed inputs —
// any rectangles in a 1000×1000 universe, zero-area ones included, p in
// [0, 1] and q down to 2⁻⁶³ — and checks the answer is a probability
// within 1e-9 of the log-space reference. The bound is looser than
// TestProbRegionMatchesLogSpace's because on adversarial inputs the
// reference's own rounding (sums of 300 logarithms near −10⁴) reaches
// 1e-10. Each reading is 10 bytes of data: x, y (uint16), w, h (uint8),
// p (uint16 over 65535), then q as a mantissa byte over 255 times
// 2^-(exponent byte mod 64).
func FuzzProbRegion(f *testing.F) {
	uni := geom.R(0, 0, 1000, 1000)
	f.Fuzz(func(t *testing.T, rx, ry uint16, rw, rh uint16, data []byte) {
		region := geom.R(float64(rx%1000), float64(ry%1000), float64(rx%1000)+float64(rw%1000), float64(ry%1000)+float64(rh%1000))
		var readings []Reading
		for len(data) >= 10 && len(readings) < 300 {
			x, y := float64(binary.BigEndian.Uint16(data)%1000), float64(binary.BigEndian.Uint16(data[2:])%1000)
			readings = append(readings, Reading{
				ID:   "f",
				Rect: geom.R(x, y, x+float64(data[4]), y+float64(data[5])),
				P:    float64(binary.BigEndian.Uint16(data[6:])) / 65535,
				Q:    math.Ldexp(float64(data[8])/255, -int(data[9]%64)),
			})
			data = data[10:]
		}
		got := ProbRegion(uni, readings, region)
		if !(got >= 0 && got <= 1) {
			t.Fatalf("ProbRegion = %v, not a probability", got)
		}
		if want := probRegionLogSpace(uni, readings, region); !(math.Abs(got-want) <= 1e-9) {
			t.Fatalf("ProbRegion = %v, log space = %v (%d readings, region %v)", got, want, len(readings), region)
		}
	})
}
