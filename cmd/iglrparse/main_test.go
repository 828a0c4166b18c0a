package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestEditOutcomesReported runs the command itself: an -edit outside the
// text must exit 1 with a message naming the edit (not panic), and under
// -recover an edit whose syntax error is isolated must print the region
// count and each diagnostic (not just "parse ok"). The test binary re-runs
// this test with the command's arguments after "--", and that child calls
// main.
func TestEditOutcomesReported(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"iglrparse"}, args...)
		main()
		return
	}
	cases := []struct {
		name   string
		args   []string
		exit   int
		stdout []string // substrings of stdout
		stderr []string // substrings of stderr
	}{
		{"edit outside the text", []string{"-lang", "expr", "-text", "1+2", "-edit", "100:1:x"},
			1, nil, []string{`edit "100:1:x"`, "3-byte text"}},
		{"isolated syntax error", []string{"-lang", "c", "-text", "int x; int y; x = 1; y = 2;", "-edit", "21:1:= ;", "-recover"},
			0, []string{"isolated 1 error region(s)", "1:15: syntax error (15 byte(s) quarantined in Item*)"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-test.run=^TestEditOutcomesReported$", "--"}, tc.args...)
			cmd := exec.Command(os.Args[0], args...)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			line := "iglrparse " + strings.Join(tc.args, " ")
			if code != tc.exit || strings.Contains(stderr.String(), "panic") {
				t.Fatalf("%s: exit %d, want %d (stderr %q)", line, code, tc.exit, stderr.String())
			}
			for _, s := range tc.stdout {
				if !strings.Contains(stdout.String(), s) {
					t.Errorf("%s: stdout lacks %q:\n%s", line, s, stdout.String())
				}
			}
			for _, s := range tc.stderr {
				if !strings.Contains(stderr.String(), s) {
					t.Errorf("%s: stderr %q lacks %q", line, stderr.String(), s)
				}
			}
		})
	}
}
