package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestUnknownExperimentExits2 runs the command itself: an unknown -exp
// name, a stray positional argument (which would otherwise stop flag
// parsing and silently run every experiment at full scale) and a removed
// flag must each exit 2 with the usage text, not succeed. The test binary
// re-runs this test with the command's arguments after "--", and that
// child calls main.
func TestUnknownExperimentExits2(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"paperbench"}, args...)
		main()
		return
	}
	cases := []struct {
		name string
		args []string
		want []string // substrings of stderr
	}{
		{"unknown experiment", []string{"-exp", "bogus"}, append(experimentNames(), `"bogus"`, "-scale")},
		{"positional argument", []string{"table1", "-scale", "0.05"}, []string{`"table1"`, "-exp"}},
		{"removed flag", []string{"-json", "x"}, []string{"-json", "-exp"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-test.run=^TestUnknownExperimentExits2$", "--"}, tc.args...)
			cmd := exec.Command(os.Args[0], args...)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("paperbench %s: exit %v, want status 2 (stderr %q)", strings.Join(tc.args, " "), err, stderr.String())
			}
			if strings.Contains(stdout.String(), "====") {
				t.Fatalf("paperbench %s ran an experiment:\n%s", strings.Join(tc.args, " "), stdout.String())
			}
			for _, s := range tc.want {
				if !strings.Contains(stderr.String(), s) {
					t.Fatalf("paperbench %s: stderr %q does not name %s", strings.Join(tc.args, " "), stderr.String(), s)
				}
			}
		})
	}
}
