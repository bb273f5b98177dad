package middlewhere_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileRunPatternsMatchTests reads every `go test` recipe line
// of the Makefile that selects tests with -run or -fuzz and checks
// that each alternative of the pattern matches at least one test (or
// fuzz target) in the packages the line names. A renamed test would
// otherwise leave a gate such as concurrency-gate, shard-stress or obs
// running nothing while it still passes.
func TestMakefileRunPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	flagRe := regexp.MustCompile(`-(run|fuzz)[ =]'([^']*)'`)
	funcRe := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	checked := 0
	for n, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "\t") || !strings.Contains(line, " test ") {
			continue
		}
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") && !strings.HasSuffix(f, "...") {
				pkgs = append(pkgs, f)
			}
		}
		for _, m := range flagRe.FindAllStringSubmatch(line, -1) {
			kind, pattern := m[1], strings.ReplaceAll(m[2], "$$", "$")
			if pattern == "^$" {
				continue // deliberately selects nothing
			}
			if len(pkgs) == 0 {
				t.Errorf("Makefile:%d: -%s '%s' names no package", n+1, kind, pattern)
				continue
			}
			var names []string
			for _, pkg := range pkgs {
				files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
				if err != nil {
					t.Fatal(err)
				}
				for _, file := range files {
					src, err := os.ReadFile(file)
					if err != nil {
						t.Fatal(err)
					}
					for _, fm := range funcRe.FindAllStringSubmatch(string(src), -1) {
						names = append(names, fm[1])
					}
				}
			}
			prefix := map[string]string{"run": "Test", "fuzz": "Fuzz"}[kind]
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile:%d: -%s alternative %q: %v", n+1, kind, alt, err)
					continue
				}
				found := false
				for _, name := range names {
					if strings.HasPrefix(name, prefix) && re.MatchString(name) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("Makefile:%d: -%s alternative %q matches no %s function in %v", n+1, kind, alt, prefix, pkgs)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz pattern in the Makefile")
	}
}
