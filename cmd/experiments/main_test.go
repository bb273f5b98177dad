package main

import (
	"strings"
	"testing"
)

func TestRunIndividualExperiments(t *testing.T) {
	// Quick mode keeps the full pass fast; F9 still exercises real TCP.
	for _, name := range []string{"T1", "T2", "F9", "E1", "E4", "E5", "CAL"} {
		if err := run(name, true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	for _, name := range []string{"ZZZ", "CITYLOAD"} {
		err := run(name, true)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}
