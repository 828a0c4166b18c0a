package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runOutput is one run's report as read back from its output.
type runOutput struct {
	workload string
	seed     int64
	trace    int
	values   map[string]float64
	// attempted and failed are the result line's op counts.
	attempted, failed int
}

// parseOutput reads a run's output: the header line, the `name value unit`
// lines and the JSON result line's op counts.
func parseOutput(r io.Reader) (runOutput, error) {
	out := runOutput{values: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	header, result := false, false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var res struct {
				Attempted *int `json:"attempted"`
				Failed    *int `json:"failed"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil || res.Attempted == nil || res.Failed == nil {
				return out, fmt.Errorf("malformed result line %q", line)
			}
			out.attempted, out.failed, result = *res.Attempted, *res.Failed, true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# iglrbench "); ok {
			header = true
			for _, kv := range strings.Fields(rest) {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					out.workload = v
				case "seed":
					out.seed, _ = strconv.ParseInt(v, 10, 64)
				case "trace":
					out.trace, _ = strconv.Atoi(v)
				}
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out.values[f[0]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	if !header {
		return out, fmt.Errorf("no iglrbench header")
	}
	if !result {
		return out, fmt.Errorf("no result line")
	}
	return out, nil
}

// failedShare is the share of the runs' attempted ops that failed (were
// shed).
func failedShare(runs []runOutput) float64 {
	var attempted, failed int
	for _, o := range runs {
		attempted += o.attempted
		failed += o.failed
	}
	return ratio(float64(failed), float64(attempted))
}

// benchmarkDef is the part of BENCHMARK.json the comparison needs.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkDef(path string) (*benchmarkDef, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchmarkDef
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (exclusive).
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	q := make([]float64, 0, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		q = append(q, (d[j-1]*float64(n-delta)+d[j]*float64(delta))/n)
	}
	return q[0], q[1], q[2]
}

// repeatRuns re-executes one workload in n fresh processes, seeds seed to
// seed+n-1, plus one traced process, and prints each end-to-end metric's
// median, quartiles and spread, and the tracing overhead.
func repeatRuns(stdout, stderr io.Writer, benchDef string, n int, outDir string, rc runConfig) error {
	def, err := readBenchmarkDef(benchDef)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	one := func(seed int64, trace int) (runOutput, error) {
		args := []string{"--workload", rc.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(rc.seconds), "--trace", strconv.Itoa(trace)}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		if err := cmd.Run(); err != nil {
			return runOutput{}, fmt.Errorf("run %v: %w", args, err)
		}
		if outDir != "" {
			name := fmt.Sprintf("%s-seed%d-trace%d.txt", rc.workload, seed, trace)
			if err := os.WriteFile(filepath.Join(outDir, name), buf.Bytes(), 0o644); err != nil {
				return runOutput{}, err
			}
		}
		return parseOutput(&buf)
	}
	var runs []runOutput
	for i := 0; i < n; i++ {
		o, err := one(rc.seed+int64(i), 0)
		if err != nil {
			return err
		}
		runs = append(runs, o)
		fmt.Fprintf(stderr, "iglrbench: %s run %d/%d done\n", rc.workload, i+1, n)
	}
	traced, err := one(rc.seed, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d, %ds each\n", rc.workload, n, rc.seed, rc.seed+int64(n)-1, rc.seconds)
	fmt.Fprintf(stdout, "%-14s %12s %12s %12s %8s %7s %14s\n", "metric", "q1", "median", "q3", "spread", "bound", "trace overhead")
	for _, m := range def.EndToEnd {
		q1, med, q3 := quartiles(column(runs, m.Name))
		fmt.Fprintf(stdout, "%-14s %12.6g %12.6g %12.6g %8.4f %7.2f %+14.4g\n",
			m.Name, q1, med, q3, ratio(q3-q1, med), m.Bound, traced.values[m.Name]-med)
	}
	fmt.Fprintf(stdout, "failed ops: %.4g of those attempted\n", failedShare(runs))
	return nil
}

// compareDirs compares two directories of untraced run outputs, metric by
// metric and workload by workload, against BENCHMARK.json's bounds. A
// larger share of failed ops than the base's is a regression too: the
// latency metrics leave shed ops out, so shedding more would otherwise
// read as a speed-up. With a claim (metric@workload) it also applies the
// gain rule: no more failed ops than the base, the change wins at least
// nine tenths of the seed-paired runs, and the medians differ by more
// than the base's interquartile range.
func compareDirs(w io.Writer, benchDef, baseDir, changeDir, claim string) error {
	def, err := readBenchmarkDef(benchDef)
	if err != nil {
		return err
	}
	base, err := readRunDir(baseDir)
	if err != nil {
		return err
	}
	change, err := readRunDir(changeDir)
	if err != nil {
		return err
	}
	regressions := 0
	fmt.Fprintf(w, "%-12s %-12s %28s %28s %8s  %s\n", "workload", "metric", "base q1/median/q3", "change q1/median/q3", "bound", "verdict")
	for _, wl := range sortedKeys(base) {
		cr, ok := change[wl]
		if !ok {
			fmt.Fprintf(w, "%-12s missing from %s\n", wl, changeDir)
			continue
		}
		for _, m := range def.EndToEnd {
			bx, cx := column(base[wl], m.Name), column(cr, m.Name)
			bq1, bmed, bq3 := quartiles(bx)
			cq1, cmed, cq3 := quartiles(cx)
			lower := m.Better == "lower"
			worse := ratio(cmed-bmed, bmed)
			if !lower {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case allBetter(cx, bx, lower):
				verdict = "better in every run"
			case ratio(bq3-bq1, bmed) > m.Bound:
				verdict = "unresolved (base spread exceeds the bound)"
			case worse > m.Bound:
				verdict = fmt.Sprintf("REGRESSION (%+.1f%%)", 100*worse)
				regressions++
			}
			fmt.Fprintf(w, "%-12s %-12s %8.4g/%8.4g/%8.4g   %8.4g/%8.4g/%8.4g %8.2f  %s\n",
				wl, m.Name, bq1, bmed, bq3, cq1, cmed, cq3, m.Bound, verdict)
		}
		bf, cf := failedShare(base[wl]), failedShare(cr)
		verdict := "ok"
		if cf > bf {
			verdict = "REGRESSION (more ops failed)"
			regressions++
		}
		fmt.Fprintf(w, "%-12s %-12s %28.4g %28.4g %8s  %s\n", wl, "failed_share", bf, cf, "0", verdict)
	}
	if claim != "" {
		if err := checkClaim(w, def, base, change, claim); err != nil {
			return err
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions beyond their bounds", regressions)
	}
	return nil
}

// checkClaim applies the gain rule to one metric on one workload.
func checkClaim(w io.Writer, def *benchmarkDef, base, change map[string][]runOutput, claim string) error {
	name, wl, ok := strings.Cut(claim, "@")
	if !ok {
		return fmt.Errorf("%w: -claim wants metric@workload, got %q", errUsage, claim)
	}
	lower := true
	known := false
	for _, m := range def.EndToEnd {
		if m.Name == name {
			lower, known = m.Better == "lower", true
		}
	}
	if !known {
		return fmt.Errorf("%w: -claim names unknown metric %q", errUsage, name)
	}
	bySeed := map[int64]float64{}
	for _, o := range base[wl] {
		bySeed[o.seed] = o.values[name]
	}
	pairs, wins := 0, 0
	for _, o := range change[wl] {
		b, ok := bySeed[o.seed]
		if !ok {
			continue
		}
		pairs++
		c := o.values[name]
		if (lower && c < b) || (!lower && c > b) {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(column(base[wl], name))
	_, cmed, _ := quartiles(column(change[wl], name))
	gain := bmed - cmed
	if !lower {
		gain = -gain
	}
	bf, cf := failedShare(base[wl]), failedShare(change[wl])
	met := pairs > 0 && 10*wins >= 9*pairs && gain > bq3-bq1 && cf <= bf
	verdict := "claim not met"
	switch {
	case cf > bf:
		verdict = fmt.Sprintf("claim refused: %.4g of ops failed, base %.4g", cf, bf)
	case met:
		verdict = "claim met"
	}
	fmt.Fprintf(w, "claim %s on %s: change wins %d of %d seed-paired runs; median gain %.4g vs base IQR %.4g: %s\n",
		name, wl, wins, pairs, gain, bq3-bq1, verdict)
	return nil
}

// readRunDir reads every untraced run output in dir, grouped by workload.
func readRunDir(dir string) (map[string][]runOutput, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]runOutput{}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		o, err := parseOutput(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if o.trace == 0 {
			out[o.workload] = append(out[o.workload], o)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced run outputs", dir)
	}
	return out, nil
}

func column(runs []runOutput, name string) []float64 {
	xs := make([]float64, len(runs))
	for i, o := range runs {
		xs[i] = o.values[name]
	}
	return xs
}

// allBetter reports whether every change value beats every base value.
func allBetter(change, base []float64, lower bool) bool {
	if len(change) == 0 || len(base) == 0 {
		return false
	}
	for _, c := range change {
		for _, b := range base {
			if (lower && c >= b) || (!lower && c <= b) {
				return false
			}
		}
	}
	return true
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
