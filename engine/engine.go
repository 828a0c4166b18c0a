// Package engine is a parallel corpus driver for the incremental analysis
// pipeline: it lexes, parses, and (optionally) semantically resolves many
// documents concurrently over one shared compiled language. It is the
// serving-scale counterpart to the paper's single-stream measurements —
// compiled languages are immutable (see the root package's concurrency
// model), so a bounded worker pool can fan a corpus out across cores with
// no per-worker table construction.
//
// Failures are isolated per file: a document that fails to parse — or
// whose analysis panics — produces a Result carrying the error while the
// rest of the batch completes normally. Cancelling the context stops the
// batch promptly (the parsers poll the context inside their main loops)
// and leaves no goroutines behind.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	incremental "iglr"
)

// Input is one document to analyze.
type Input struct {
	// Name labels the document in its Result (a file name, request id, …).
	Name string
	// Source is the document text.
	Source string
}

// Result is the outcome for one input.
type Result struct {
	// Name and Index identify the input (Index is its position in the
	// batch; Results are returned in input order).
	Name  string
	Index int
	// Root is the parse dag, nil when Err is non-nil.
	Root *incremental.Node
	// Err is nil on success; otherwise a *incremental.ParseError, a
	// *PanicError (the worker recovered a panic for this file), or the
	// context's error for inputs abandoned by cancellation.
	Err error
	// Stats counts the parser work for this document.
	Stats incremental.ParseStats
	// Dag measures the parse dag (AnalyzeAll only).
	Dag incremental.DagStats
	// Semantics reports the §4.2 resolution pass (AnalyzeAll over a
	// language with a semantics configuration).
	Semantics incremental.SemanticsResult
	// Bytes is len(Source); Duration is this file's wall time (summed
	// over attempts, excluding backoff sleeps).
	Bytes    int
	Duration time.Duration
	// Attempts is how many times the file was tried (1 unless a Policy
	// with Retries was set and an attempt failed retryably).
	Attempts int
	// Diagnostics lists the quarantined syntax-error regions when the
	// policy is Tolerant and the file parsed under tier-1 error isolation
	// (empty for clean parses). Root is then a valid tree with one error
	// node per diagnostic and Err is nil.
	Diagnostics []incremental.Diagnostic
	// Degraded reports that the result was produced under reduced
	// fidelity: the parse ran with the policy's DegradedBudget, and/or
	// the dag had ambiguous regions pruned by the alternatives budget.
	Degraded bool
	// BudgetTrips counts attempts of this file that ended in a
	// *incremental.BudgetError.
	BudgetTrips int
}

// PanicError is a panic recovered while analyzing one input.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: analysis panicked: %v", e.Value)
}

// Aggregate summarizes a batch.
type Aggregate struct {
	// Files counts all inputs; Failed counts those with a non-nil Err
	// (including inputs abandoned by cancellation).
	Files, Failed int
	// Bytes is the total source size of successfully analyzed inputs.
	Bytes int64
	// Stats sums the per-file parser work; MaxActiveParsers is the
	// maximum over files.
	Stats incremental.ParseStats
	// Dag sums the per-file dag measurements; MaxAlternatives is the
	// maximum over files (AnalyzeAll only).
	Dag incremental.DagStats
	// Semantics sums the per-file resolution results (AnalyzeAll only).
	Semantics incremental.SemanticsResult
	// Degraded counts files whose result was produced at reduced
	// fidelity (see Result.Degraded); BudgetTrips sums the budget
	// errors hit across all attempts of all files.
	Degraded, BudgetTrips int
	// FilesWithDiagnostics counts files that parsed only under tier-1
	// error isolation; Diagnostics sums their quarantined regions
	// (Tolerant policies only).
	FilesWithDiagnostics, Diagnostics int
	// Wall is the batch wall time, including worker startup.
	Wall time.Duration
}

// Batch is the outcome of ParseAll/AnalyzeAll: one Result per input, in
// input order, plus the aggregate.
type Batch struct {
	Results   []Result
	Aggregate Aggregate
}

// Option configures a batch run.
type Option func(*config)

type config struct {
	analyze bool
	policy  Policy
}

// WithWorkers bounds the worker pool (default runtime.GOMAXPROCS(0);
// values < 1 select the default). It is shorthand for setting
// Policy.Workers — the policy struct is the one knobs surface, so a
// service can unmarshal a whole batch configuration from JSON.
func WithWorkers(n int) Option {
	return func(c *config) { c.policy.Workers = n }
}

// Policy governs a batch run: the worker pool, per-file resource use, and
// failure handling. The zero Policy is the permissive default: default
// worker count, no budget, no timeout, one attempt. Policy marshals to
// JSON (durations as nanoseconds), so a daemon's reloadable config can
// carry one straight into the engine.
type Policy struct {
	// Workers bounds the worker pool (default runtime.GOMAXPROCS(0);
	// values < 1 select the default).
	Workers int `json:"workers,omitempty"`
	// Budget bounds every parse attempt's resources (see
	// incremental.Budget; the zero value is unlimited).
	Budget incremental.Budget `json:"budget,omitempty"`
	// FileTimeout bounds each attempt's wall time via a per-file context
	// deadline (0 = none). It composes with Budget.MaxDuration: the
	// timeout covers the whole attempt, the budget just the parse.
	FileTimeout time.Duration `json:"file_timeout_ns,omitempty"`
	// Retries is how many extra attempts a file gets after a retryable
	// failure — a budget trip, a FileTimeout expiry, or a recovered
	// panic. Batch-context cancellation is never retried.
	Retries int `json:"retries,omitempty"`
	// Backoff is slept between attempts (cancellable by the batch
	// context).
	Backoff time.Duration `json:"backoff_ns,omitempty"`
	// DegradedBudget, when non-nil, replaces Budget on retry attempts.
	// The intended shape trades fidelity for completion — e.g. a small
	// MaxAlternatives so ambiguous regions are pruned to their preferred
	// interpretation instead of exhausting the forest budget. Results
	// produced under it are marked Degraded.
	DegradedBudget *incremental.Budget `json:"degraded_budget,omitempty"`
	// Tolerant makes syntax errors non-fatal per file: the session's
	// tier-1 error isolation quarantines the damage and the Result
	// carries a valid Root plus Diagnostics instead of an Err. Files
	// whose damage cannot be bounded still fail. Budget trips, timeouts
	// and cancellation are unaffected — they stay errors (and stay
	// retryable).
	Tolerant bool `json:"tolerant,omitempty"`
}

// WithPolicy sets the batch's policy. A zero p.Workers preserves a worker
// count set by an earlier WithWorkers, so the two options compose in
// either order.
func WithPolicy(p Policy) Option {
	return func(c *config) {
		if p.Workers == 0 {
			p.Workers = c.policy.Workers
		}
		c.policy = p
	}
}

// ParseAll parses every input over the shared language with a bounded
// worker pool. It returns the per-file results (in input order) and the
// batch aggregate. The returned error is nil unless the context was
// cancelled; per-file failures are reported in their Result only.
func ParseAll(ctx context.Context, lang *incremental.Language, inputs []Input, opts ...Option) (*Batch, error) {
	return run(ctx, lang, inputs, false, opts)
}

// AnalyzeAll is ParseAll plus the rest of the pipeline per document:
// semantic disambiguation (when the language carries a semantics
// configuration) and dag space measurement.
func AnalyzeAll(ctx context.Context, lang *incremental.Language, inputs []Input, opts ...Option) (*Batch, error) {
	return run(ctx, lang, inputs, true, opts)
}

func run(ctx context.Context, lang *incremental.Language, inputs []Input, analyze bool, opts []Option) (*Batch, error) {
	cfg := config{analyze: analyze}
	for _, o := range opts {
		o(&cfg)
	}
	workers := cfg.policy.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(inputs) && len(inputs) > 0 {
		workers = len(inputs)
	}
	if ctx == nil {
		ctx = context.Background()
	}

	start := time.Now()
	results := make([]Result, len(inputs))
	jobs := make(chan int)
	// One session pool per batch: workers recycle parser arenas, sharer
	// tables and document buffers across files instead of reallocating
	// them per file. Parse trees live in per-session arenas that are never
	// recycled, so Results stay valid after the batch returns.
	pool := incremental.NewPool(lang)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = analyzeOne(ctx, lang, pool, inputs[i], i, &cfg)
			}
		}()
	}

	// Feed jobs until done or cancelled; unfed inputs are marked with the
	// context error below.
	fed := 0
feed:
	for ; fed < len(inputs); fed++ {
		select {
		case jobs <- fed:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	for i := fed; i < len(inputs); i++ {
		results[i] = Result{Name: inputs[i].Name, Index: i, Err: ctx.Err()}
	}

	b := &Batch{Results: results}
	b.Aggregate = aggregate(results)
	b.Aggregate.Wall = time.Since(start)
	return b, ctx.Err()
}

// analyzeOne runs the pipeline for one input under the batch policy:
// each attempt is panic-isolated, retryable failures (budget trips,
// per-file timeouts, recovered panics) are retried up to Retries times —
// under DegradedBudget when one is configured — and batch cancellation
// stops the attempt loop immediately.
func analyzeOne(ctx context.Context, lang *incremental.Language, pool *incremental.Pool, in Input, idx int, cfg *config) Result {
	var (
		res      Result
		trips    int
		duration time.Duration
	)
	for attempt := 0; ; attempt++ {
		budget, degraded := cfg.policy.Budget, false
		if attempt > 0 && cfg.policy.DegradedBudget != nil {
			budget, degraded = *cfg.policy.DegradedBudget, true
		}
		res = attemptOne(ctx, lang, pool, in, idx, cfg, budget)
		res.Attempts = attempt + 1
		res.Degraded = res.Degraded || degraded
		duration += res.Duration
		if errors.Is(res.Err, incremental.ErrBudget) {
			trips++
		}
		if res.Err == nil || attempt >= cfg.policy.Retries ||
			ctx.Err() != nil || !retryable(res.Err) {
			break
		}
		if cfg.policy.Backoff > 0 {
			t := time.NewTimer(cfg.policy.Backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
	}
	res.Duration = duration
	res.BudgetTrips = trips
	return res
}

// retryable reports whether a failed attempt is worth repeating: resource
// exhaustion (budget, per-file deadline) and recovered panics are; syntax
// errors and batch cancellation are not.
func retryable(err error) bool {
	if errors.Is(err, incremental.ErrBudget) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var pe *PanicError
	return errors.As(err, &pe)
}

// attemptOne runs the pipeline once for one input, converting panics into
// a *PanicError so a poisoned file cannot take down the batch (or its own
// later attempts).
func attemptOne(ctx context.Context, lang *incremental.Language, pool *incremental.Pool, in Input, idx int,
	cfg *config, budget incremental.Budget) (res Result) {
	res = Result{Name: in.Name, Index: idx, Bytes: len(in.Source)}
	start := time.Now()
	defer func() {
		res.Duration = time.Since(start)
		if r := recover(); r != nil {
			// The session is deliberately NOT recycled on panic: its parser
			// may be mid-flight in an arbitrary state.
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			res = Result{
				Name: in.Name, Index: idx, Bytes: len(in.Source),
				Err: &PanicError{Value: r, Stack: buf}, Duration: time.Since(start),
			}
		}
	}()
	if cfg.policy.FileTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.policy.FileTimeout)
		defer cancel()
	}

	s := pool.NewSession(in.Source, incremental.WithBudget(budget))
	var root *incremental.Node
	var err error
	if cfg.policy.Tolerant {
		out := s.Do(ctx, incremental.Tolerant())
		root, err = out.Root, out.Err
		if err == nil && root == nil {
			err = fmt.Errorf("engine: %s: recovery produced no tree", in.Name)
		}
		if out.Isolated {
			res.Diagnostics = s.Diagnostics()
		}
	} else {
		out := s.Do(ctx)
		root, err = out.Root, out.Err
	}
	res.Stats = s.Stats()
	res.Degraded = res.Stats.BudgetPruned > 0
	if err != nil {
		res.Err = err
		pool.Recycle(s)
		return res
	}
	res.Root = root
	if cfg.analyze {
		res.Semantics = s.Resolve()
		res.Dag = incremental.Measure(root)
	}
	pool.Recycle(s)
	return res
}

func aggregate(results []Result) Aggregate {
	var a Aggregate
	a.Files = len(results)
	for i := range results {
		r := &results[i]
		a.BudgetTrips += r.BudgetTrips
		if r.Err != nil {
			a.Failed++
			continue
		}
		if r.Degraded {
			a.Degraded++
		}
		if len(r.Diagnostics) > 0 {
			a.FilesWithDiagnostics++
			a.Diagnostics += len(r.Diagnostics)
		}
		a.Bytes += int64(r.Bytes)
		addStats(&a.Stats, r.Stats)
		addDag(&a.Dag, r.Dag)
		a.Semantics.ResolvedDecl += r.Semantics.ResolvedDecl
		a.Semantics.ResolvedStmt += r.Semantics.ResolvedStmt
		a.Semantics.Unresolved += r.Semantics.Unresolved
		a.Semantics.TypeBindings += r.Semantics.TypeBindings
		a.Semantics.OrdinaryBindings += r.Semantics.OrdinaryBindings
	}
	return a
}

func addStats(dst *incremental.ParseStats, s incremental.ParseStats) {
	dst.Shifts += s.Shifts
	dst.SubtreeShifts += s.SubtreeShifts
	dst.TerminalShifts += s.TerminalShifts
	dst.Reductions += s.Reductions
	dst.Breakdowns += s.Breakdowns
	dst.Splits += s.Splits
	dst.Rounds += s.Rounds
	dst.RetainedNodes += s.RetainedNodes
	dst.BudgetPruned += s.BudgetPruned
	if s.MaxActiveParsers > dst.MaxActiveParsers {
		dst.MaxActiveParsers = s.MaxActiveParsers
	}
}

func addDag(dst *incremental.DagStats, s incremental.DagStats) {
	dst.DagNodes += s.DagNodes
	dst.TreeNodes += s.TreeNodes
	dst.ChoiceNodes += s.ChoiceNodes
	dst.AmbiguousRegions += s.AmbiguousRegions
	dst.Terminals += s.Terminals
	dst.BudgetPruned += s.BudgetPruned
	dst.ErrorNodes += s.ErrorNodes
	if s.MaxAlternatives > dst.MaxAlternatives {
		dst.MaxAlternatives = s.MaxAlternatives
	}
}
