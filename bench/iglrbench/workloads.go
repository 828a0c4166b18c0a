package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	incremental "iglr"
	"iglr/engine"
	"iglr/internal/corpus"
)

// workload is one registered benchmark input and load.
type workload struct {
	name string
	run  func(e *env, r *result) error
}

// workloads is the registry. BENCHMARK.json lists the same names, and
// bench/README.md says why each exists.
var workloads = []workload{
	{"edit_small", func(e *env, r *result) error { return runEdits(e, r, editSmall) }},
	{"edit_large", func(e *env, r *result) error { return runEdits(e, r, editLarge) }},
	{"edit_errors", func(e *env, r *result) error { return runEdits(e, r, editErrors) }},
	{"cold_corpus", runColdCorpus},
	{"daemon_mix", runDaemonMix},
}

// editParams shapes an edit workload.
type editParams struct {
	lines int
	// warmup edits run before the timed phase.
	warmup int
	// lifetime is how many edits a session takes before it is replaced,
	// off the clock, by a fresh session over the same text. The document's
	// node arena keeps every node a reparse builds (about 1.3 bytes per
	// byte of text per edit), so without a lifetime the heap, peak RSS and
	// GC cost would grow with the number of edits a run completes. The
	// traced run reports that growth as document.retained_kb_per_edit.
	lifetime int
	// checkEvery is how often (in pairs) the tree is compared with the
	// reference; the last pair is always checked.
	checkEvery int
	// errors selects break/repair pairs under Do(Tolerant()) instead of
	// self-cancelling identifier edits under plain Do.
	errors bool
}

var (
	editSmall  = editParams{lines: 1000, warmup: 500, lifetime: 1000, checkEvery: 1}
	editLarge  = editParams{lines: 16000, warmup: 100, lifetime: 100, checkEvery: 50}
	editErrors = editParams{lines: 4000, warmup: 100, lifetime: 200, checkEvery: 50, errors: true}
)

// ambPerKLoC is the density of Figure 1 typedef ambiguities in the edit
// and daemon files, near the middle of Table 1's range.
const ambPerKLoC = 2

// scriptPairs is the length of the edit script an edit workload cycles
// through; the positions are random, so cycling repeats no pattern the
// parser could exploit.
const scriptPairs = 1 << 13

// editState is an edit workload's set-up: the session after its initial
// batch parse and what its checks compare against.
type editState struct {
	lang  *incremental.Language
	src   string
	s     *incremental.Session
	edits int // edits applied to s
	pairs [][2]corpus.Edit
	// ref fingerprints the initial batch parse's tree; amb is the number
	// of ambiguous constructs the generator emitted.
	ref uint64
	amb int
	// In traced runs, heap0 is the live heap before the session's first
	// edit, and grown and grownEdits sum the live heap each session gained
	// over its edits and the edits it took.
	heap0      uint64
	grown      int64
	grownEdits int
}

// noteGrowth adds the live heap the session gained since heap0, and the
// edits it took, to the totals (traced runs only).
func (st *editState) noteGrowth(e *env) {
	if e.tr == nil || st.edits == 0 {
		return
	}
	st.grown += int64(liveHeap()) - int64(st.heap0)
	st.grownEdits += st.edits
}

// renew replaces the session with a fresh one over the original text and
// runs its initial batch parse.
func (st *editState) renew(e *env) error {
	if st.s != nil {
		st.noteGrowth(e)
	}
	id := e.tr.begin("NewSession", "document", -1, -1)
	st.s = incremental.NewSession(st.lang, st.src)
	e.tr.end(id)
	id = e.tr.begin("Session.Do(cold)", "iglr", -1, -1)
	out := st.s.Do(context.Background())
	e.tr.end(id)
	st.edits = 0
	if !out.Clean {
		return fmt.Errorf("check initial parse: not clean: %v", out.Err)
	}
	return nil
}

func setupEdits(e *env, p editParams) (*editState, error) {
	src, amb := corpus.Generate(corpus.Spec{Name: "edit", Lines: e.scaled(p.lines, 100), Lang: "c",
		AmbiguousPerKLoC: ambPerKLoC, Seed: e.seed})
	st := &editState{lang: incremental.CSubset(), src: src, amb: amb}
	if err := st.renew(e); err != nil {
		return nil, err
	}
	st.pairs = corpus.SelfCancellingEdits(src, scriptPairs, e.seed+1)
	if len(st.pairs) == 0 {
		return nil, fmt.Errorf("check edit script: no identifiers in the generated file")
	}
	if p.errors {
		// The break inserts "= ;" before an identifier; the repair removes
		// it again.
		for i, sp := range st.pairs {
			off := sp[0].Offset
			st.pairs[i] = [2]corpus.Edit{{Offset: off, Inserted: "= ;"}, {Offset: off, Removed: 3}}
		}
	}
	return st, nil
}

// runEdits is the edit_small, edit_large and edit_errors workload: one
// caller in a closed loop, one op = Session.Edit + Session.Do.
func runEdits(e *env, r *result, p editParams) error {
	ctx := context.Background()
	st, err := setUp(r, func() (*editState, error) { return setupEdits(e, p) }, nil)
	if err != nil {
		return err
	}
	st.ref = fingerprint(st.s.Tree())
	if e.tamper {
		st.ref ^= 1
	}

	var doOpts []incremental.ParseOption
	doName := "Session.Do"
	if p.errors {
		doOpts = []incremental.ParseOption{incremental.Tolerant()}
		doName = "Session.Do(Tolerant)"
	}
	lifetime := e.scaled(p.lifetime, 2)
	next := 0
	// nextPair returns the next pair of the script, first replacing the
	// session if it has reached its lifetime (always between pairs, when
	// the text is the original). Neither the renewal nor the heap reading
	// before a session's first edit counts toward the ops' runtime costs.
	nextPair := func() ([2]corpus.Edit, error) {
		if st.edits >= lifetime || (e.tr != nil && st.edits == 0) {
			renewing := st.edits >= lifetime
			if renewing && r.pacing {
				// The ops' garbage is collected, charged to them, before
				// the renewal adds its own, which is collected uncharged.
				r.gc.collect(true)
			}
			err := r.offWindow(func() error {
				if renewing {
					if err := st.renew(e); err != nil {
						return err
					}
					if r.pacing {
						r.gc.collect(false)
					}
				}
				if e.tr != nil {
					st.heap0 = liveHeap()
				}
				return nil
			})
			if err != nil {
				return [2]corpus.Edit{}, err
			}
		}
		pr := st.pairs[next%len(st.pairs)]
		next++
		st.edits += 2
		return pr, nil
	}

	for i := 0; i < e.scaled(p.warmup, 2)/2; i++ {
		pair, err := nextPair()
		if err != nil {
			return err
		}
		for half, ed := range pair {
			st.s.Edit(ed.Offset, ed.Removed, ed.Inserted)
			if err := checkEditOutcome(st.s, st.s.Do(ctx, doOpts...), p.errors, half); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}

	var (
		stats                   incremental.ParseStats
		calls, relexed          int
		breaks, isolated, regns int
	)
	r.startTimed()
	deadline := time.Now().Add(e.dur)
	for pairNo := 0; ; pairNo++ {
		pair, err := nextPair()
		if err != nil {
			return err
		}
		// An op is one edit. On edit_errors it is a break and its repair,
		// whose times are summed: the two differ by a factor of 20, so the
		// median of single edits would fall between them. The check of the
		// break's diagnostics runs between the halves, off the clock.
		var (
			op        int
			opAt      time.Time
			cpu, wall time.Duration
		)
		for half, ed := range pair {
			first, last := half == 0 || !p.errors, half == 1 || !p.errors
			if first {
				op = r.attempted
				r.attempted++
				cpu, wall = 0, 0
			}
			t0 := startOp()
			if first {
				opAt = t0.wall
			}
			sp := e.tr.begin("op", "loadgen", -1, op)
			id := e.tr.begin("Session.Edit", "document", sp, op)
			st.s.Edit(ed.Offset, ed.Removed, ed.Inserted)
			e.tr.end(id)
			id = e.tr.begin(doName, "iglr", sp, op)
			out := st.s.Do(ctx, doOpts...)
			if out.Isolated {
				e.tr.endAs(id, "isolate")
			} else {
				e.tr.end(id)
			}
			e.tr.end(sp)
			c, w := t0.elapsed()
			cpu, wall = cpu+c, wall+w
			if last {
				r.addOp(cpu, wall, opAt)
				r.ops++
				r.pace()
			}

			if err := checkEditOutcome(st.s, out, p.errors, half); err != nil {
				return err
			}
			calls++
			relexed += st.s.Relexed()
			addStats(&stats, out.Stats)
			if p.errors && half == 0 {
				breaks++
				if out.Isolated {
					isolated++
				}
				regns += out.ErrorRegions
			}
		}
		last := !time.Now().Before(deadline)
		if last || (pairNo+1)%p.checkEvery == 0 {
			err := r.offWindow(func() error {
				if fp := fingerprint(st.s.Tree()); fp != st.ref {
					return fmt.Errorf("check tree after pair %d: fingerprint %x, initial batch parse %x", pairNo, fp, st.ref)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		if last {
			break
		}
		r.calibrate()
	}
	r.stopTimed()
	st.noteGrowth(e)

	dag := incremental.Measure(st.s.Tree())
	if dag.AmbiguousRegions != st.amb {
		return fmt.Errorf("check ambiguity: %d ambiguous regions, generator emitted %d", dag.AmbiguousRegions, st.amb)
	}
	r.set("file_kb", float64(len(st.src))/1024, "KB")
	r.set("session_lifetime_edits", float64(lifetime), "count")
	r.set("document.relexed_tokens_per_edit", ratio(float64(relexed), float64(calls)), "count")
	setIglrCounts(r, stats, calls)
	setDag(r, dag, len(st.src))
	if p.errors {
		r.set("isolate.isolated_ratio", ratio(float64(isolated), float64(breaks)), "ratio")
		r.set("isolate.error_regions_mean", ratio(float64(regns), float64(breaks)), "count")
	}
	if e.tr != nil {
		r.set("document.retained_kb_per_edit", ratio(float64(st.grown)/1024, float64(st.grownEdits)), "KB")
		setCallTimes(r, "document", e.tr.durations("document", "Session.Edit"))
		r.set("document.build_ms", ms(medianDur(e.tr.durations("document", "NewSession"))), "ms")
		r.set("iglr.cold_parse_ms", ms(medianDur(e.tr.durations("iglr", "Session.Do(cold)"))), "ms")
		setCallTimes(r, "iglr", e.tr.durations("iglr", doName))
		if p.errors {
			brk := e.tr.durations("isolate", doName)
			rep := e.tr.durations("iglr", doName)
			r.set("isolate.break_us_p50", us(pct(brk, 0.5)), "us")
			r.set("isolate.repair_us_p50", us(pct(rep, 0.5)), "us")
			r.set("isolate.break_to_repair", ratio(float64(pct(brk, 0.5)), float64(pct(rep, 0.5))), "ratio")
		}
	}
	return nil
}

// checkEditOutcome checks one op's result: plain edits and repairs must
// parse cleanly, breaks must be isolated with at least one diagnostic.
func checkEditOutcome(s *incremental.Session, out incremental.Outcome, errs bool, half int) error {
	if errs && half == 0 {
		if !out.Isolated || len(s.Diagnostics()) == 0 {
			return fmt.Errorf("check break: want an isolated parse with diagnostics, got clean=%v isolated=%v err=%v",
				out.Clean, out.Isolated, out.Err)
		}
		return nil
	}
	if !out.Clean {
		return fmt.Errorf("check edit: parse not clean: %v", out.Err)
	}
	return nil
}

// fingerprint hashes every field FormatDag prints, in FormatDag's order:
// the depth and, per node, its kind, symbol, production, lexeme, child
// count, terminal count and filter mark. Two trees have equal fingerprints
// when their FormatDag outlines are equal. It stands in for comparing the
// outlines themselves, which grow with the square of the sequence depth
// (over 200 MB for a 16,000-line file).
func fingerprint(root *incremental.Node) uint64 {
	h := fnv.New64a()
	type item struct {
		n     *incremental.Node
		depth int
	}
	var buf []byte
	stack := []item{{root, 0}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := it.n
		buf = buf[:0]
		if n == nil {
			buf = append(buf, "nil;"...)
			h.Write(buf)
			continue
		}
		buf = strconv.AppendInt(buf, int64(it.depth), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(n.Kind), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(n.Sym), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(n.Prod), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendQuote(buf, n.Text)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(len(n.Kids)), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(n.TermCount), 10)
		buf = strconv.AppendBool(buf, n.Filtered)
		buf = append(buf, ';')
		h.Write(buf)
		for i := len(n.Kids) - 1; i >= 0; i-- {
			stack = append(stack, item{n.Kids[i], it.depth + 1})
		}
	}
	return h.Sum64()
}

func addStats(dst *incremental.ParseStats, s incremental.ParseStats) {
	dst.Shifts += s.Shifts
	dst.SubtreeShifts += s.SubtreeShifts
	dst.TerminalShifts += s.TerminalShifts
	dst.Reductions += s.Reductions
	dst.Breakdowns += s.Breakdowns
	dst.RetainedNodes += s.RetainedNodes
	if s.MaxActiveParsers > dst.MaxActiveParsers {
		dst.MaxActiveParsers = s.MaxActiveParsers
	}
}

// setIglrCounts reports the parser's work counters per Do call.
func setIglrCounts(r *result, s incremental.ParseStats, calls int) {
	n := float64(calls)
	r.set("iglr.shifts_per_op", ratio(float64(s.Shifts), n), "count")
	r.set("iglr.subtree_shifts_per_op", ratio(float64(s.SubtreeShifts), n), "count")
	r.set("iglr.terminal_shifts_per_op", ratio(float64(s.TerminalShifts), n), "count")
	r.set("iglr.reductions_per_op", ratio(float64(s.Reductions), n), "count")
	r.set("iglr.breakdowns_per_op", ratio(float64(s.Breakdowns), n), "count")
	r.set("iglr.retained_nodes_per_op", ratio(float64(s.RetainedNodes), n), "count")
	r.set("iglr.max_active_parsers", float64(s.MaxActiveParsers), "count")
	r.set("iglr.reuse_ratio", ratio(float64(s.SubtreeShifts), float64(s.Shifts)), "ratio")
	r.set("iglr.do_calls", n, "count")
}

// setDag reports the Table 1 space measures of a dag over bytes of text.
func setDag(r *result, d incremental.DagStats, bytes int) {
	r.set("dag.nodes_per_kb", ratio(float64(d.DagNodes), float64(bytes)/1024), "count")
	r.set("dag.space_overhead_pct", d.SpaceOverheadPercent(), "%")
	r.set("dag.ambiguous_regions", float64(d.AmbiguousRegions), "count")
}

// setCallTimes reports the median and p99 latency of one layer's calls.
func setCallTimes(r *result, layer string, ds []time.Duration) {
	r.set(layer+".call_us_p50", us(pct(ds, 0.5)), "us")
	r.set(layer+".call_us_p99", us(pct(ds, 0.99)), "us")
	r.set(layer+".calls", float64(len(ds)), "count")
}

// The cold corpus is Table 1's programs at coldScale of their line counts,
// cut into translation units of coldUnitLines lines (each program gets the
// nearest whole number of units, at least one): about 50 files, 0.7 MB.
// Equal units give the per-file latencies one cluster per language, so
// their percentiles do not jump between programs of different sizes, and
// a pass's parse trees stay near 100 MB of heap.
const (
	coldScale     = 0.05
	coldUnitLines = 1000
)

type coldGroup struct {
	lang   *incremental.Language
	inputs []engine.Input
	amb    []int
}

// setupCold generates the corpus and runs the untimed warm-up pass.
func setupCold(e *env) ([]*coldGroup, int, error) {
	groups := []*coldGroup{{lang: incremental.CSubset()}, {lang: incremental.CPPSubset()}}
	bytes := 0
	for i, spec := range corpus.Table1Specs() {
		units := int(math.Round(float64(spec.Lines) * coldScale / coldUnitLines))
		if units < 1 {
			units = 1
		}
		g := groups[0]
		if spec.Lang == "c++" {
			g = groups[1]
		}
		for k := 0; k < units; k++ {
			unit := spec
			unit.Lines = e.scaled(coldUnitLines, 100)
			unit.Seed = e.seed*10000 + int64(100*i+k)
			src, amb := corpus.Generate(unit)
			g.inputs = append(g.inputs, engine.Input{Name: fmt.Sprintf("%s.%d", spec.Name, k), Source: src})
			g.amb = append(g.amb, amb)
			bytes += len(src)
		}
	}
	for _, g := range groups {
		if _, err := engine.ParseAll(context.Background(), g.lang, g.inputs); err != nil {
			return nil, 0, err
		}
	}
	return groups, bytes, nil
}

// checkBatch checks one ParseAll call: no file failed and every file's dag
// has exactly the ambiguous regions the generator emitted. It adds the
// files' dag measures to sum.
func checkBatch(g *coldGroup, b *engine.Batch, tamper bool, sum *incremental.DagStats) error {
	if b.Aggregate.Failed != 0 {
		return fmt.Errorf("check cold corpus: %d of %d files failed", b.Aggregate.Failed, b.Aggregate.Files)
	}
	for i, res := range b.Results {
		want := g.amb[i]
		if tamper {
			want++
		}
		d := incremental.Measure(res.Root)
		if d.AmbiguousRegions != want {
			return fmt.Errorf("check cold corpus: %s has %d ambiguous regions, generator emitted %d",
				res.Name, d.AmbiguousRegions, want)
		}
		sum.DagNodes += d.DagNodes
		sum.TreeNodes += d.TreeNodes
		sum.AmbiguousRegions += d.AmbiguousRegions
	}
	return nil
}

// runColdCorpus is the cold_corpus workload: the scaled Table 1 corpus
// through engine.ParseAll with the zero Policy, one call per language per
// pass. One op = one pass. With one processor the engine runs one worker,
// so the files of a pass are parsed one after another and no file's CPU
// time can be told apart from the pass's; every pass does the same work.
func runColdCorpus(e *env, r *result) error {
	ctx := context.Background()
	var bytes int
	groups, err := setUp(r, func() ([]*coldGroup, error) {
		g, b, err := setupCold(e)
		bytes = b
		return g, err
	}, nil)
	if err != nil {
		return err
	}

	var (
		stats    incremental.ParseStats
		attempts int
		files    []time.Duration
		dag      incremental.DagStats
		batches  = make([]*engine.Batch, len(groups))
		deadline = time.Now().Add(e.dur)
	)
	r.startTimed()
	for r.ops == 0 || time.Now().Before(deadline) {
		op := e.tr.begin("op", "loadgen", -1, r.ops)
		r.attempted++
		t0 := startOp()
		for gi, g := range groups {
			id := e.tr.begin("ParseAll", "engine", op, r.ops)
			b, err := engine.ParseAll(ctx, g.lang, g.inputs)
			e.tr.end(id)
			if err != nil {
				return err
			}
			batches[gi] = b
		}
		r.endOp(t0)
		e.tr.end(op)
		r.ops++
		// The collection, if due, runs while the pass's trees are still
		// held, as by a caller that uses them.
		r.pace()
		err := r.offWindow(func() error {
			dag = incremental.DagStats{}
			for gi, b := range batches {
				for _, res := range b.Results {
					files = append(files, res.Duration)
					attempts += res.Attempts
					addStats(&stats, res.Stats)
				}
				if err := checkBatch(groups[gi], b, e.tamper, &dag); err != nil {
					return err
				}
				batches[gi] = nil
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.calibrate()
	}
	r.stopTimed()
	var buildCPU, parseCPU time.Duration
	if e.tr != nil {
		if buildCPU, parseCPU, err = replayStages(ctx, e, groups); err != nil {
			return err
		}
	}

	passes := r.ops
	wall, cpu := sumDur(r.wall), sumDur(r.cpu)
	perPass := func(d time.Duration) float64 { return ms(d) / float64(passes) }
	r.set("corpus_mb", float64(bytes)/1e6, "MB")
	r.set("cold_mb_per_cpu_s", float64(bytes)*float64(passes)/cpu.Seconds()/1e6, "MB/s")
	r.set("cold_mb_per_s", float64(bytes)*float64(passes)/wall.Seconds()/1e6, "MB/s")
	r.set("engine.passes", float64(passes), "count")
	r.set("engine.wall_ms", perPass(wall), "ms")
	r.set("engine.cpu_ms", perPass(cpu), "ms")
	r.set("engine.file_ms_p50", ms(pct(files, 0.5)), "ms")
	r.set("engine.file_ms_p99", ms(pct(files, 0.99)), "ms")
	r.set("engine.attempts_per_file", ratio(float64(attempts), float64(len(files))), "count")
	setIglrCounts(r, stats, len(files))
	setDag(r, dag, bytes)
	if e.tr != nil {
		builds := e.tr.durations("document", "NewSession")
		colds := e.tr.durations("iglr", "Session.Do(cold)")
		setCallTimes(r, "document", builds)
		setCallTimes(r, "iglr", colds)
		r.set("document.build_ms", ms(medianDur(builds)), "ms")
		r.set("iglr.cold_parse_ms", ms(medianDur(colds)), "ms")
		build, cold := buildCPU/replayPasses, parseCPU/replayPasses
		engineCPU := cpu / time.Duration(passes)
		r.set("document.build_ms_per_pass", ms(build), "ms")
		r.set("iglr.cold_parse_ms_per_pass", ms(cold), "ms")
		r.set("engine.overhead_ms", ms(engineCPU-build-cold), "ms")
		r.set("engine.overhead_frac", ratio(float64(engineCPU-build-cold), float64(engineCPU)), "ratio")
	}
	return nil
}

// replayPasses is how many times the traced run replays the corpus through
// the engine's two stages.
const replayPasses = 3

// replayStages is the traced run's stage replay, after the timed phase:
// every file through NewSession and a cold Do, one at a time, so that the
// engine's CPU time per pass can be set against its two stages. It
// returns the CPU time the two stages took over all passes on the
// replaying thread, with the collector paused while a file is replayed
// and run between files. So the sums are the stages' own work, and the
// engine's CPU time beyond them is collection and the engine's own
// bookkeeping. Wall time would count the time other tenants of the host
// hold the CPU; process CPU time would count the runtime's other threads.
func replayStages(ctx context.Context, e *env, groups []*coldGroup) (build, parse time.Duration, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for pass := 0; pass < replayPasses; pass++ {
		for _, g := range groups {
			for _, in := range g.inputs {
				runtime.GC()
				c0 := threadCPUTime()
				id := e.tr.begin("NewSession", "document", -1, -1)
				s := incremental.NewSession(g.lang, in.Source)
				e.tr.end(id)
				c1 := threadCPUTime()
				id = e.tr.begin("Session.Do(cold)", "iglr", -1, -1)
				out := s.Do(ctx)
				e.tr.end(id)
				c2 := threadCPUTime()
				build += c1 - c0
				parse += c2 - c1
				if !out.Clean {
					return 0, 0, fmt.Errorf("check stage replay: %s: not clean: %v", in.Name, out.Err)
				}
			}
		}
	}
	return build, parse, nil
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
