//go:build !race

package coords

import (
	"testing"

	"middlewhere/internal/geom"
)

// TestConvertBetweenFloorsAllocatesNothing pins Convert's cost:
// converting a point between two floor frames walks both chains to
// their shared root without a heap allocation. Excluded under -race
// because the race runtime allocates inside atomics.
func TestConvertBetweenFloorsAllocatesNothing(t *testing.T) {
	tr := NewTree()
	if err := tr.AddRoot("CS"); err != nil {
		t.Fatal(err)
	}
	for i, floor := range []string{"CS/Floor2", "CS/Floor3"} {
		if err := tr.AddFrame(floor, "CS", Transform{Origin: geom.Pt(0, float64(100*i)), Scale: 1}); err != nil {
			t.Fatal(err)
		}
	}
	p := geom.Pt(3, 4)
	if _, err := tr.Convert(p, "CS/Floor2", "CS/Floor3"); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { tr.Convert(p, "CS/Floor2", "CS/Floor3") }); n != 0 {
		t.Errorf("Convert between two floor frames: %v allocs/op, want 0", n)
	}
}
