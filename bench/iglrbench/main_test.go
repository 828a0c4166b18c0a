package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	incremental "iglr"
	"iglr/internal/corpus"
)

// tinyEnv runs a workload at a small size for a short timed phase.
func tinyEnv(trace bool) *env {
	e := &env{seed: 1, dur: 300 * time.Millisecond, size: 0.02}
	if trace {
		e.tr = newTracer()
	}
	return e
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestWorkloadsReportDeclaredMetrics runs every workload at a tiny size,
// untraced and traced, and checks that the result line carries exactly
// the metrics BENCHMARK.json declares for that mode, with their units.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, registry %s", got, want)
	}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			want := def.EndToEnd
			if trace == 1 {
				want = def.PerLayer
			}
			t.Run(w.name+map[int]string{0: "/untraced", 1: "/traced"}[trace], func(t *testing.T) {
				res, err := measure(w, tinyEnv(trace == 1))
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				rc := runConfig{workload: w.name, seed: 1, seconds: 1, trace: trace}
				if err := report(&out, rc, res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not the result JSON: %v", err)
				}
				if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
					t.Fatalf("result %+v", got)
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(got.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := got.Metrics[d.Name]
					if !ok {
						t.Errorf("missing metric %s", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
					}
				}
				if trace == 0 {
					for _, d := range want {
						if got.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, got.Metrics[d.Name].Value)
						}
					}
				}
			})
		}
	}
}

// TestUnknownWorkloadFails checks that a mistyped workload is a usage
// error, not a silent success.
func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "edit_medium"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a result for an unknown workload: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "unknown workload") {
		t.Errorf("stderr %q does not name the problem", stderr.String())
	}
	if code := run([]string{"--workload", "edit_small", "--trace", "2"}, &stdout, &stderr); code != 2 {
		t.Errorf("--trace 2: exit code %d, want 2", code)
	}
}

// TestTamperedReferenceFails corrupts each workload's reference and
// checks that the correctness check catches it.
func TestTamperedReferenceFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := tinyEnv(false)
			e.tamper = true
			_, err := measure(w, e)
			if err == nil || !strings.Contains(err.Error(), "check") {
				t.Fatalf("tampered reference: err = %v, want a failed check", err)
			}
		})
	}
}

// TestFingerprintAgreesWithFormatDag checks that the fingerprint the edit
// workloads compare trees by agrees with comparing FormatDag outlines.
func TestFingerprintAgreesWithFormatDag(t *testing.T) {
	lang := incremental.CSubset()
	parse := func(src string) *incremental.Session {
		s := incremental.NewSession(lang, src)
		if out := s.Do(context.Background()); !out.Clean {
			t.Fatal(out.Err)
		}
		return s
	}
	src, _ := corpus.Generate(corpus.Spec{Name: "t", Lines: 120, Lang: "c", AmbiguousPerKLoC: 20, Seed: 3})
	a, b := parse(src), parse(src)
	for _, pair := range corpus.SelfCancellingEdits(src, 20, 4) {
		for _, ed := range pair {
			b.Edit(ed.Offset, ed.Removed, ed.Inserted)
			if out := b.Do(context.Background()); !out.Clean {
				t.Fatal(out.Err)
			}
		}
	}
	same := incremental.FormatDag(lang, a.Tree()) == incremental.FormatDag(lang, b.Tree())
	if !same || fingerprint(a.Tree()) != fingerprint(b.Tree()) {
		t.Fatalf("after self-cancelling edits: outlines equal %v, fingerprints %x %x",
			same, fingerprint(a.Tree()), fingerprint(b.Tree()))
	}
	pair := corpus.SelfCancellingEdits(src, 1, 5)[0]
	b.Edit(pair[0].Offset, pair[0].Removed, pair[0].Inserted)
	b.Do(context.Background())
	if incremental.FormatDag(lang, a.Tree()) == incremental.FormatDag(lang, b.Tree()) {
		t.Fatal("an identifier edit left the outline unchanged")
	}
	if fingerprint(a.Tree()) == fingerprint(b.Tree()) {
		t.Fatal("outlines differ but fingerprints agree")
	}
}

var sink []byte

// TestOffWindowExcludesWork checks that allocations made inside offWindow
// are left out of the runtime counters and those made outside it are not.
func TestOffWindowExcludesWork(t *testing.T) {
	const big = 8 << 20
	r := newResult()
	r.startTimed()
	if err := r.offWindow(func() error { sink = make([]byte, big); return nil }); err != nil {
		t.Fatal(err)
	}
	r.stopTimed()
	if r.rt.alloc >= big {
		t.Fatalf("%d bytes counted; the %d allocated off the window leaked in", r.rt.alloc, big)
	}
	r.startTimed()
	sink = make([]byte, big)
	r.stopTimed()
	if r.rt.alloc < big {
		t.Fatalf("%d bytes counted after allocating %d inside the window", r.rt.alloc, big)
	}
}

// TestPacedCollectionsRunOnlyBetweenOps checks that in a paced timed phase
// the heap grows past the size the runtime would collect at without a
// collection, and that pace then runs one and charges its CPU time.
func TestPacedCollectionsRunOnlyBetweenOps(t *testing.T) {
	cycles := func() uint32 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.NumGC
	}
	r := newResult()
	defer r.unpace()
	r.startTimed()
	n0 := cycles()
	var keep [][]byte
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 1<<20))
		sink = make([]byte, 1<<20)
	}
	if n := cycles(); n != n0 {
		t.Fatalf("%d collections ran inside the op", n-n0)
	}
	r.pace()
	if n := cycles(); n != n0+1 || len(r.gc.cpu) != 1 || r.gc.cpu[0] <= 0 {
		t.Fatalf("pace: %d collections, %d charged", n-n0, len(r.gc.cpu))
	}
	r.pace()
	if n := cycles(); n != n0+1 {
		t.Fatalf("pace collected again with the heap below the next collection's size")
	}
	r.stopTimed()
	runtime.KeepAlive(keep)
}

// TestScaleUsesNearbyKernelTimes checks that a time is stated at the
// reference speed by the kernel times taken near it, not by the run's.
func TestScaleUsesNearbyKernelTimes(t *testing.T) {
	c := &calibrator{}
	t0 := time.Now()
	for i := 0; i < 40; i++ {
		k := calibRef
		if i >= 20 {
			k = 2 * calibRef // the host runs at half speed from here on
		}
		c.times = append(c.times, k)
		c.at = append(c.at, t0.Add(time.Duration(i)*time.Second))
	}
	got := c.scale([]time.Duration{10 * time.Millisecond, 10 * time.Millisecond},
		[]time.Time{t0.Add(5 * time.Second), t0.Add(30 * time.Second)})
	if got[0] != 10*time.Millisecond || got[1] != 5*time.Millisecond {
		t.Fatalf("scaled %v, want [10ms 5ms]", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the method the spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1, 3, 2, 5}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestCompareFlagsRegression writes directories of run outputs and checks
// the verdicts: a regression beyond the bound fails, a claim with every
// pair won and a gain beyond the base's spread is met, and the same gain
// bought by shedding ops is a regression and refused as a claim.
func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(path, body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	benchDef := filepath.Join(dir, "BENCHMARK.json")
	writeFile(benchDef, `{"end_to_end":[{"name":"op_cpu_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`)
	write := func(sub string, failed int, vals []float64) string {
		d := filepath.Join(dir, sub)
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			writeFile(filepath.Join(d, fmt.Sprintf("run%d.txt", i)),
				fmt.Sprintf("# iglrbench workload=edit_small seed=%d seconds=1 trace=0\nop_cpu_p50_ms %v ms\n"+
					`{"correct":true,"attempted":100,"failed":%d,"metrics":{"op_cpu_p50_ms":{"value":%v,"unit":"ms"}}}`+"\n",
					i+1, v, failed, v))
		}
		return d
	}
	base := write("base", 0, []float64{1.00, 1.01, 0.99, 1.00, 1.02})
	slower := write("slower", 0, []float64{1.30, 1.31, 1.29, 1.30, 1.32})
	faster := write("faster", 0, []float64{0.70, 0.71, 0.69, 0.70, 0.72})
	shedding := write("shedding", 5, []float64{0.70, 0.71, 0.69, 0.70, 0.72})

	var out bytes.Buffer
	if err := compareDirs(&out, benchDef, base, slower, ""); err == nil || !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("30%% slower: err=%v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareDirs(&out, benchDef, base, faster, "op_cpu_p50_ms@edit_small"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "claim met") {
		t.Fatalf("30%% faster in every pair: claim not met\n%s", out.String())
	}
	out.Reset()
	err := compareDirs(&out, benchDef, base, shedding, "op_cpu_p50_ms@edit_small")
	if err == nil || !strings.Contains(out.String(), "REGRESSION (more ops failed)") ||
		!strings.Contains(out.String(), "claim refused") {
		t.Fatalf("30%% faster with 5%% of ops shed: err=%v\n%s", err, out.String())
	}
}
