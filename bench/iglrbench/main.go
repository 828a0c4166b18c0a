// Command iglrbench is the repository's benchmark: one workload per
// process, measured from outside the library by timing calls into each
// layer's public functions.
//
//	iglrbench --workload edit_large --seed 3 --seconds 20 --trace 0
//
// prints one `name value unit` line per metric and, as its last line, a
// JSON object {correct, attempted, failed, metrics}. With --trace 0 the
// JSON carries the end-to-end metrics of BENCHMARK.json; with --trace 1 it
// records a span around every layer call and carries the per-layer
// metrics instead. A failed correctness check exits 1 without the JSON
// line; a usage error (an unknown workload, say) exits 2.
//
// Two modes sit on top of single runs:
//
//	iglrbench -repeat 5 -workload edit_small [-out runs/base]
//	iglrbench -compare runs/base runs/change [-claim op_cpu_p50_ms@edit_large]
//
// See bench/README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// procs is the benchmark's GOMAXPROCS, fixed so that results (the engine's
// default worker count, the collector's workers) do not depend on the
// host's core count. It is 1 so that the process's CPU time, which the
// gated metrics are timed by, is one processor's work: a second processor
// adds the collector's idle-time workers and the scheduler's spinning,
// whose CPU time depends on how busy the host is.
const procs = 1

// freePages is the GODEBUG setting the benchmark runs under: the runtime
// hands freed heap pages back to the kernel with MADV_FREE rather than
// MADV_DONTNEED. With MADV_DONTNEED, the heap's reuse of a returned page
// faults it in again: about 700,000 faults in a 20-second edit_large run,
// 2 of its 20 seconds of CPU time, and a fault's cost on a virtual machine
// depends on the host's memory state, not on the library. With MADV_FREE a
// page the kernel has not reclaimed is reused without a fault. The runtime
// reads the setting only at start-up, so main re-executes the process with
// it when it is missing.
const freePages = "madvdontneed=0"

func main() {
	if godebug := os.Getenv("GODEBUG"); !strings.Contains(","+godebug+",", ","+freePages+",") {
		env := []string{"GODEBUG=" + strings.TrimPrefix(godebug+","+freePages, ",")}
		for _, kv := range os.Environ() {
			if !strings.HasPrefix(kv, "GODEBUG=") {
				env = append(env, kv)
			}
		}
		exe, err := os.Executable()
		if err == nil {
			err = syscall.Exec(exe, os.Args, env)
		}
		fmt.Fprintf(os.Stderr, "iglrbench: re-executing with GODEBUG=%s: %v\n", freePages, err)
		os.Exit(1)
	}
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage marks a command-line mistake (exit 2) as opposed to a failed
// run (exit 1).
var errUsage = errors.New("usage")

// run is main without the process exit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iglrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "seed for the generated inputs and edit scripts")
		seconds  = fs.Int("seconds", 20, "length of the timed phase in seconds")
		trace    = fs.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
		spans    = fs.String("spans", "", "with --trace 1, write the recorded spans to this JSON file")
		repeat   = fs.Int("repeat", 0, "run the workload in this many fresh processes (seeds seed..seed+N-1) plus one traced process, and print medians and spreads")
		outDir   = fs.String("out", "", "with -repeat, save each run's output in this directory (input for -compare)")
		compare  = fs.Bool("compare", false, "compare two directories of run outputs: -compare base/ change/")
		claim    = fs.String("claim", "", "with -compare, test a named gain claim, as metric@workload")
		benchDef = fs.String("benchmark", "BENCHMARK.json", "benchmark definition that holds the metric bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := dispatch(stdout, stderr, *compare, fs.Args(), *claim, *benchDef, *repeat, *outDir,
		runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace, spans: *spans})
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errUsage):
		fmt.Fprintf(stderr, "iglrbench: %v\n", err)
		return 2
	default:
		fmt.Fprintf(stderr, "iglrbench: %v\n", err)
		return 1
	}
}

// runConfig is one single-run invocation as given on the command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string
}

func dispatch(stdout, stderr io.Writer, compare bool, rest []string, claim, benchDef string,
	repeat int, outDir string, rc runConfig) error {
	if compare {
		if len(rest) != 2 {
			return fmt.Errorf("%w: -compare needs two directories, base and change", errUsage)
		}
		return compareDirs(stdout, benchDef, rest[0], rest[1], claim)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: unexpected arguments %q", errUsage, rest)
	}
	w, ok := findWorkload(rc.workload)
	if !ok {
		return fmt.Errorf("%w: unknown workload %q (have %s)", errUsage, rc.workload, strings.Join(workloadNames(), ", "))
	}
	if rc.trace != 0 && rc.trace != 1 {
		return fmt.Errorf("%w: --trace must be 0 or 1, not %d", errUsage, rc.trace)
	}
	if rc.seconds < 1 {
		return fmt.Errorf("%w: --seconds must be at least 1", errUsage)
	}
	if repeat > 0 {
		return repeatRuns(stdout, stderr, benchDef, repeat, outDir, rc)
	}
	env := &env{seed: rc.seed, dur: time.Duration(rc.seconds) * time.Second, size: 1}
	if rc.trace == 1 {
		env.tr = newTracer()
	}
	res, err := measure(w, env)
	if err != nil {
		return err
	}
	if rc.spans != "" && env.tr != nil {
		if err := env.tr.writeFile(rc.spans); err != nil {
			return err
		}
	}
	return report(stdout, rc, res)
}

// metric is one reported value.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report prints the run: a header, every metric as `name value unit`, and
// the JSON result line last.
func report(w io.Writer, rc runConfig, res *result) error {
	fmt.Fprintf(w, "# iglrbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d godebug=%s\n",
		rc.workload, rc.seed, rc.seconds, rc.trace, runtime.GOMAXPROCS(0), os.Getenv("GODEBUG"))
	for _, m := range res.lines {
		fmt.Fprintf(w, "%s %v %s\n", m.Name, m.Value, m.Unit)
	}
	declared := endToEnd
	if rc.trace == 1 {
		declared = perLayer
	}
	type valueJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueJSON `json:"metrics"`
	}{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]valueJSON{}}
	for _, d := range declared {
		out.Metrics[d.Name] = valueJSON{Value: res.values[d.Name], Unit: d.Unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// workloadNames lists the registered workloads in order.
func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
