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
// name must exit 2 and list every valid name on stderr, not succeed
// silently. The test binary re-runs this test with the command's
// arguments after "--", and that child calls main.
func TestUnknownExperimentExits2(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"paperbench"}, args...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownExperimentExits2$", "--", "-exp", "bogus")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2 (stderr %q)", err, stderr.String())
	}
	for _, name := range append(experimentNames(), `"bogus"`) {
		if !strings.Contains(stderr.String(), name) {
			t.Fatalf("stderr %q does not name %s", stderr.String(), name)
		}
	}
}
