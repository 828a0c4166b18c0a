package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// declared is a metric BENCHMARK.json lists; the JSON result line carries
// exactly these (end-to-end with --trace 0, per-layer with --trace 1).
type declared struct{ Name, Unit string }

// endToEnd are the metrics a user of the library or daemon sees. Every
// workload reports all of them; what "op" means is the workload's own
// unit of work (see workloads). Times are the process's CPU time, not wall
// time: see cpuTime.
var endToEnd = []declared{
	{"setup_s", "s"},
	{"op_cpu_p50_ms", "ms"},
	{"op_cpu_p90_ms", "ms"},
	{"ops_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the layer metrics of the traced run. Every workload reports
// all of them. Times are given only for layers every workload reaches
// (document, iglr, runtime); a layer only some workloads reach reports
// counts and shares of op time, which are 0 where the layer does no work.
var perLayer = []declared{
	{"document.call_us_p50", "us"},
	{"document.call_us_p99", "us"},
	{"document.build_ms", "ms"},
	{"document.relexed_tokens_per_edit", "count"},
	{"document.retained_kb_per_edit", "KB"},
	{"document.self_frac", "ratio"},
	{"iglr.call_us_p50", "us"},
	{"iglr.call_us_p99", "us"},
	{"iglr.cold_parse_ms", "ms"},
	{"iglr.shifts_per_op", "count"},
	{"iglr.subtree_shifts_per_op", "count"},
	{"iglr.terminal_shifts_per_op", "count"},
	{"iglr.reductions_per_op", "count"},
	{"iglr.breakdowns_per_op", "count"},
	{"iglr.retained_nodes_per_op", "count"},
	{"iglr.max_active_parsers", "count"},
	{"iglr.reuse_ratio", "ratio"},
	{"iglr.self_frac", "ratio"},
	{"isolate.self_frac", "ratio"},
	{"isolate.isolated_ratio", "ratio"},
	{"isolate.error_regions_mean", "count"},
	{"isolate.break_to_repair", "ratio"},
	{"dag.nodes_per_kb", "count"},
	{"dag.space_overhead_pct", "%"},
	{"dag.ambiguous_regions", "count"},
	{"engine.self_frac", "ratio"},
	{"engine.overhead_frac", "ratio"},
	{"engine.attempts_per_file", "count"},
	{"daemon.self_frac", "ratio"},
	{"daemon.overhead_frac", "ratio"},
	{"daemon.queue_wait_frac", "ratio"},
	{"daemon.shed_total", "count"},
	{"persist.journal_records_per_edit", "ratio"},
	{"persist.errors", "count"},
	{"govern.memory_mb", "MB"},
	{"govern.pressure_evictions", "count"},
	{"loadgen.self_frac", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_ms_per_op", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.gc_cpu_frac", "ratio"},
}

// layers are the trace's layer names, after the repository's modules;
// loadgen is the benchmark's own time inside an op.
var layers = []string{"document", "iglr", "isolate", "engine", "daemon", "loadgen"}

// env is what a workload is given: the seed, the length of the timed
// phase, an input-size factor (1 is the documented size; tests shrink it),
// the tracer (nil when tracing is off), and a test hook that corrupts the
// workload's reference so its correctness check must fail.
type env struct {
	seed   int64
	dur    time.Duration
	size   float64
	tr     *tracer
	tamper bool
}

// scaled returns n scaled by the size factor, at least min.
func (e *env) scaled(n, min int) int {
	v := int(float64(n) * e.size)
	if v < min {
		v = min
	}
	return v
}

// Each workload sets up at least minSetups times, and more until the
// set-ups have taken setupCPU of CPU time, up to maxSetups; setup_s is the
// median, so a one-off cost (the first language load) does not set it,
// and a set-up of a few milliseconds is not judged by a handful of
// samples.
const (
	minSetups = 7
	maxSetups = 100
	setupCPU  = 500 * time.Millisecond
)

// setUp builds a workload's state, each time from a collected heap, and
// records each build's CPU time. A build runs with the collector off and
// ends with a full collection, which its time includes: the cost of the
// garbage it left and of the state it built, without a collection's
// landing in it by chance. It returns the last state; discard, if given,
// releases each earlier one off the clock.
func setUp[T any](r *result, build func() (T, error), discard func(T)) (T, error) {
	var (
		st    T
		total time.Duration
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < maxSetups && (i < minSetups || total < setupCPU); i++ {
		if i > 0 && discard != nil {
			discard(st)
		}
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		var err error
		if st, err = build(); err != nil {
			return st, err
		}
		runtime.GC()
		d := cpuTime() - c0
		r.setups = append(r.setups, d)
		r.setupAt = append(r.setupAt, t0)
		total += d
		r.calibrate()
	}
	return st, nil
}

// The collector runs between ops, not inside them. With one processor, a
// collection that starts during an op takes the processor from it, so an
// op's time depended on whether a cycle happened to land in it: a run's op
// times fell into two clusters, with and without a collection, and a
// percentile where the clusters met moved by up to half from run to run.
// So in the timed phase the runtime's own pacing is off, and the benchmark
// collects at the heap size the runtime aims for by default (GOGC=100:
// twice the heap the last collection left live, at least minHeap), but
// only between ops. An op's time is then the library's own work, as on a
// host with a processor to spare for the collector. The collections' CPU
// time is charged to the ops in ops_per_cpu_s, so allocating more still
// reads as slower.
const minHeap = 4 << 20

// pacer collects between ops.
type pacer struct {
	// allocs0 is the heap's cumulative allocation at the last collection,
	// and room what may be allocated after it before the next.
	allocs0, room uint64
	// cpu holds the CPU time of each charged collection and at when it
	// began.
	cpu []time.Duration
	at  []time.Time
}

// collect runs a full collection, charging its CPU time if charge, and sets
// the room before the next.
func (p *pacer) collect(charge bool) {
	t0, c0 := time.Now(), cpuTime()
	runtime.GC()
	if charge {
		p.cpu = append(p.cpu, cpuTime()-c0)
		p.at = append(p.at, t0)
	}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	live := s[0].Value.Uint64()
	p.allocs0 = s[1].Value.Uint64()
	p.room = max(2*live, minHeap) - live
}

// due reports whether the heap has grown to the next collection's size.
func (p *pacer) due() bool {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()-p.allocs0 >= p.room
}

// result collects what a workload measured.
type result struct {
	// setups holds each set-up's CPU time and setupAt when it began.
	setups  []time.Duration
	setupAt []time.Time
	// cpu and wall hold each op's CPU time (behind the gated op_cpu_*
	// metrics) and its wall time (printed, not gated); at is when it began.
	cpu, wall []time.Duration
	at        []time.Time
	// ops counts the ops the timed phase completed, which the runtime
	// counters are divided by.
	ops int
	// attempted and failed count the ops tried and refused (sheds).
	attempted, failed int

	values map[string]float64
	lines  []metric

	cal *calibrator

	// gc paces the collector in the timed phase; pacing says it is on, and
	// gcPercent is the setting it replaced.
	gc        pacer
	pacing    bool
	gcPercent int

	// rt sums the runtime counters over the timed phase, less the
	// stretches offWindow pauses; rtMark is where the open stretch began.
	rt       rtDelta
	rtMark   rtSnap
	inWindow bool
}

func newResult() *result { return &result{values: map[string]float64{}} }

// opStart is where an op began on the CPU clock and the wall clock.
type opStart struct {
	cpu  time.Duration
	wall time.Time
}

func startOp() opStart { return opStart{cpuTime(), time.Now()} }

// elapsed is the CPU and wall time since s.
func (s opStart) elapsed() (cpu, wall time.Duration) { return cpuTime() - s.cpu, time.Since(s.wall) }

// endOp records the op begun at s.
func (r *result) endOp(s opStart) {
	cpu, wall := s.elapsed()
	r.addOp(cpu, wall, s.wall)
}

// addOp records an op that took cpu and wall time and began at at.
func (r *result) addOp(cpu, wall time.Duration, at time.Time) {
	r.cpu = append(r.cpu, cpu)
	r.wall = append(r.wall, wall)
	r.at = append(r.at, at)
}

// set records a metric for the report; declared metrics also go into the
// JSON line.
func (r *result) set(name string, v float64, unit string) {
	r.values[name] = v
	r.lines = append(r.lines, metric{name, v, unit})
}

// startTimed and stopTimed bracket the timed phase for the runtime
// counters. In it the collector runs only where the workload calls pace,
// between ops (see pacer).
func (r *result) startTimed() {
	r.gcPercent, r.pacing = debug.SetGCPercent(-1), true
	r.gc.collect(false)
	r.rtMark, r.inWindow = takeSnap(), true
}

func (r *result) stopTimed() {
	r.rt.add(r.rtMark, takeSnap())
	r.inWindow = false
	r.unpace()
}

// pace collects if the heap has grown to the next collection's size.
func (r *result) pace() {
	if r.pacing && r.gc.due() {
		r.gc.collect(true)
	}
}

// unpace hands the collector back to the runtime.
func (r *result) unpace() {
	if r.pacing {
		debug.SetGCPercent(r.gcPercent)
		r.pacing = false
	}
}

// offWindow runs f with the runtime counters paused, so that work inside
// the timed phase that no op does (tree checks, session renewals) is not
// charged to the ops.
func (r *result) offWindow(f func() error) error {
	if !r.inWindow {
		return f()
	}
	r.rt.add(r.rtMark, takeSnap())
	err := f()
	r.rtMark = takeSnap()
	return err
}

// calibrate times the calibration kernel, off the runtime counters, if it
// is due. Workloads call it between ops.
func (r *result) calibrate() {
	if r.cal.due() {
		r.offWindow(func() error { r.cal.measure(); return nil })
	}
}

// measure runs one workload and derives the metrics common to all of
// them: the end-to-end set, the runtime layer, and the trace's self times.
func measure(w workload, e *env) (*result, error) {
	r := newResult()
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	r.cal = cal
	defer r.unpace()
	for i := 0; i < calibBookends; i++ {
		cal.measure()
	}
	if err := w.run(e, r); err != nil {
		return nil, err
	}
	for i := 0; i < calibBookends; i++ {
		cal.measure()
	}
	if len(r.cpu) == 0 || r.ops == 0 || len(r.setups) == 0 {
		return nil, fmt.Errorf("%s: the timed phase completed no ops", w.name)
	}
	// The gated times are stated at the reference speed (see calibrator);
	// the raw.* lines give them as measured. Throughput divides the ops by
	// their CPU time plus that of the collections paced between them.
	setups := cal.scale(r.setups, r.setupAt)
	opTimes := cal.scale(r.cpu, r.at)
	gc := sumDur(cal.scale(r.gc.cpu, r.gc.at))
	rawGC := sumDur(r.gc.cpu)
	n := float64(len(r.cpu))
	r.set("calib.kernel_ms_p50", ms(medianDur(cal.times)), "ms")
	r.set("calib.kernel_ms_spread", ratio(float64(pct(cal.times, 0.75)-pct(cal.times, 0.25)), float64(medianDur(cal.times))), "ratio")
	r.set("calib.samples", float64(len(cal.times)), "count")
	r.set("setup_s", medianDur(setups).Seconds(), "s")
	r.set("setup_reps", float64(len(r.setups)), "count")
	r.set("op_cpu_p50_ms", ms(pct(opTimes, 0.50)), "ms")
	r.set("op_cpu_p90_ms", ms(pct(opTimes, 0.90)), "ms")
	r.set("op_cpu_p99_ms", ms(pct(opTimes, 0.99)), "ms")
	r.set("op_samples", n, "count")
	r.set("ops_per_cpu_s", n/(sumDur(opTimes)+gc).Seconds(), "1/s")
	r.set("runtime.gc_ms_per_op", ms(gc)/n, "ms")
	r.set("raw.setup_s", medianDur(r.setups).Seconds(), "s")
	r.set("raw.op_cpu_p50_ms", ms(pct(r.cpu, 0.50)), "ms")
	r.set("raw.op_cpu_p90_ms", ms(pct(r.cpu, 0.90)), "ms")
	r.set("raw.ops_per_cpu_s", n/(sumDur(r.cpu)+rawGC).Seconds(), "1/s")
	r.set("wall.op_p50_ms", ms(pct(r.wall, 0.50)), "ms")
	r.set("wall.op_p90_ms", ms(pct(r.wall, 0.90)), "ms")
	r.set("wall.op_p99_ms", ms(pct(r.wall, 0.99)), "ms")
	r.set("wall.ops_per_s", n/sumDur(r.wall).Seconds(), "1/s")
	r.set("peak_rss_mb", peakRSSMB(), "MB")

	rt, ops := &r.rt, float64(r.ops)
	r.set("runtime.alloc_bytes_per_op", float64(rt.alloc)/ops, "B")
	r.set("runtime.allocs_per_op", float64(rt.mallocs)/ops, "count")
	r.set("runtime.cpu_us_per_op", us(rt.cpu)/ops, "us")
	r.set("runtime.gc_cycles", float64(rt.gcCycles), "count")
	r.set("runtime.gc_pause_p99_us", us(pct(rt.pauses, 0.99)), "us")
	if rt.totalCPU > 0 {
		r.set("runtime.gc_cpu_frac", rt.gcCPU/rt.totalCPU, "ratio")
	}

	if e.tr != nil {
		self, total, n := e.tr.selfTimes()
		for _, l := range layers {
			if total > 0 {
				r.set(l+".self_frac", float64(self[l])/float64(total), "ratio")
			}
			if n > 0 {
				r.set("trace.self_us_per_op."+l, us(self[l])/float64(n), "us")
			}
		}
	}
	return r, nil
}

// rtSnap is the runtime's state at one instant.
type rtSnap struct {
	ms              runtime.MemStats
	gcCPU, totalCPU float64
	// cpu is the process's user plus system time (getrusage).
	cpu time.Duration
}

func takeSnap() rtSnap {
	var s rtSnap
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	runtime.ReadMemStats(&s.ms)
	s.cpu = cpuTime()
	return s
}

// rtDelta sums the runtime counters over stretches of the timed phase.
type rtDelta struct {
	alloc, mallocs  uint64
	gcCycles        uint32
	pauses          []time.Duration
	gcCPU, totalCPU float64
	cpu             time.Duration
}

// add adds the stretch from snapshot b to snapshot a.
func (d *rtDelta) add(b, a rtSnap) {
	d.alloc += a.ms.TotalAlloc - b.ms.TotalAlloc
	d.mallocs += a.ms.Mallocs - b.ms.Mallocs
	d.gcCycles += a.ms.NumGC - b.ms.NumGC
	d.pauses = append(d.pauses, gcPauses(b.ms, a.ms)...)
	d.gcCPU += a.gcCPU - b.gcCPU
	d.totalCPU += a.totalCPU - b.totalCPU
	d.cpu += a.cpu - b.cpu
}

// liveHeap collects the heap and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// gcPauses returns the stop-the-world pauses of the GC cycles between two
// snapshots (the runtime keeps the last 256).
func gcPauses(b, a runtime.MemStats) []time.Duration {
	var out []time.Duration
	for n := a.NumGC; n > b.NumGC && a.NumGC-n < 256; n-- {
		out = append(out, time.Duration(a.PauseNs[(n+255)%256]))
	}
	return out
}

// peakRSSMB is the process's maximum resident set size (getrusage; Linux
// reports kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTime is the CPU time all of the process's threads have used so far
// (CLOCK_PROCESS_CPUTIME_ID). The gated metrics are timed by it rather than
// by the wall clock, which on a shared virtual machine also counts the
// time the host gives to other tenants (steal, which a paravirtualized
// guest kernel leaves out of a task's CPU time) and the time spent waiting
// for this VM's own processors. What CPU time still counts is the host
// running the processor slower; the calibrator takes that out. With
// GOMAXPROCS at 1 the process's CPU time is the one processor's work plus
// the runtime's own threads.
func cpuTime() time.Duration { return clockTime(2) }

// threadCPUTime is the calling thread's CPU time so far
// (CLOCK_THREAD_CPUTIME_ID); the caller must be locked to its thread.
func threadCPUTime() time.Duration { return clockTime(3) }

func clockTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// pct is the nearest-rank p-quantile of ds (0 for none).
func pct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func medianDur(ds []time.Duration) time.Duration { return pct(ds, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
