package incremental_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests: go test -run with a pattern that matches
// no test passes silently, so a CI step that names a deleted or renamed
// test would stop checking anything without failing. Every alternative of
// every -run pattern in the CI workflow must match a Test, Benchmark or
// Fuzz function declared in some _test.go file of the repository.
func TestCIRunPatternsMatchTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var names []string
	err = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	patterns := regexp.MustCompile(`-run '([^']*)'`).FindAllStringSubmatch(string(ci), -1)
	if len(patterns) == 0 {
		t.Fatal("no -run pattern in the CI workflow")
	}
	for _, p := range patterns {
		if p[1] == "^$" {
			continue
		}
	alternatives:
		for _, alt := range strings.Split(p[1], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Fatalf("-run '%s': %v", p[1], err)
			}
			for _, n := range names {
				if re.MatchString(n) {
					continue alternatives
				}
			}
			t.Errorf("-run '%s': %q matches no declared test", p[1], alt)
		}
	}
}
