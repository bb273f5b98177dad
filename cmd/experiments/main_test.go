package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

func TestRunIndividualExperiments(t *testing.T) {
	// Quick mode keeps the full pass fast; F9 still exercises real TCP.
	for _, name := range []string{"T1", "T2", "F9", "E1", "E4", "E5", "CAL"} {
		if err := run(io.Discard, name, true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	for _, name := range []string{"ZZZ", "CITYLOAD"} {
		err := run(io.Discard, name, true)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

// TestExperimentGolden pins the paper's reproduced numbers: the -quick
// output of every experiment without a timing column must match
// testdata/<id>.golden byte for byte. A change that moves a reported
// number fails here and names it; rewrite the files with
//
//	go test ./cmd/experiments -run TestExperimentGolden -update
//
// only when the new numbers are the intended ones. F9 is all timing
// and E4 prints ns/probe, so neither has a golden.
func TestExperimentGolden(t *testing.T) {
	for _, name := range []string{"T1", "T2", "E1", "E5", "CAL"} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, name, true); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (create it with -update)", err)
			}
			if got := out.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("%s output differs from %s:\n%s", name, path, lineDiff(string(want), string(got)))
			}
		})
	}
}

// lineDiff lists the lines that differ between the golden and the new
// output, side by side.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  golden: %s\n  got:    %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
