// Package faultinject provides deterministic, seed-driven failure points
// for the incremental analysis pipeline. Production code carries a handful
// of injection sites (lexer token creation, dag arena allocation, parser
// rounds, mid-reduction); each site is a single atomic load when no plan is
// active, so the hooks cost nothing in normal operation and are exercised
// only by tests.
//
// A Plan maps injection points to triggers. A trigger can match on the
// site's detail string (e.g. a token's text — which makes faults follow
// *content*, deterministic even under a parallel engine batch) and/or fire
// on the N-th matching hit (deterministic for single-goroutine sessions).
// The action says what the site does: return an error token, panic, report
// cancellation, or panic with a budget error (a forced allocation-cap hit).
//
// The convergence suite (the root package's faultconverge_test.go) proves
// the system's core robustness guarantee: after an injected cancellation,
// budget trip or panic the session's committed tree is byte-identical to
// the pre-fault tree, and the retried parse is correct. A lexical fault
// corrupts a terminal in the document, which a tolerant parse quarantines
// like any syntax error, keeping the text; once the fault clears, retyping
// the edit converges to the cold parse — error isolation's "always
// converge" property extended from user syntax errors to faults.
package faultinject

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point identifies an injection site in the pipeline.
type Point uint8

// Injection points, one per instrumented pipeline stage.
const (
	// LexTerminal fires in document.newTerminal for every significant
	// token; detail is the token's text. ActError corrupts the token into
	// a lexical error.
	LexTerminal Point = iota
	// ArenaAlloc fires in dag.Arena's allocator; detail is empty.
	// ActBudget simulates an allocation-cap hit.
	ArenaAlloc
	// ParseRound fires at the top of each IGLR parse round; detail is the
	// lookahead's text. ActCancel simulates cancellation mid-parse.
	ParseRound
	// Reduce fires inside the IGLR reducer, mid-reduction; detail is the
	// lookahead's text.
	Reduce
	// Resolve fires at the start of a semantic resolution pass; detail is
	// empty.
	Resolve
	// PersistAppend fires before a write-ahead journal append in the
	// daemon's persistence layer; detail is the session ID. ActError fails
	// the append (persistence degrades; the session stays live).
	PersistAppend
	// PersistSync fires before an fsync of a journal or snapshot file;
	// detail is the session ID or target path. ActError fails the sync.
	PersistSync
	// PersistSnapshot fires before a session snapshot is captured; detail
	// is the session ID. ActError fails the snapshot.
	PersistSnapshot
	numPoints
)

func (p Point) String() string {
	switch p {
	case LexTerminal:
		return "lex-terminal"
	case ArenaAlloc:
		return "arena-alloc"
	case ParseRound:
		return "parse-round"
	case Reduce:
		return "reduce"
	case Resolve:
		return "resolve"
	case PersistAppend:
		return "persist-append"
	case PersistSync:
		return "persist-sync"
	case PersistSnapshot:
		return "persist-snapshot"
	default:
		return "unknown"
	}
}

// Action is what an injection site does when its trigger fires.
type Action uint8

// Actions. ActNone means "do nothing" (trigger did not fire).
const (
	ActNone Action = iota
	// ActError makes the site produce its domain error: LexTerminal emits
	// an error token (a lexical fault).
	ActError
	// ActPanic makes the site panic with a *Panic value.
	ActPanic
	// ActCancel makes the site behave as if its context were cancelled.
	ActCancel
	// ActBudget makes the site panic with a *guard.BudgetError — a forced
	// resource-cap hit on the existing abort path.
	ActBudget
	// ActDelay makes the site sleep for the trigger's Sleep duration before
	// continuing normally. Delay-aware sites call FireTimed; sites that only
	// call Fire treat ActDelay as ActNone (they cannot honor it). Slow
	// persist I/O and stalled parse rounds — the overload chaos harness's
	// raw material — are built from this.
	ActDelay
)

// Panic is the value injected panics carry, so tests (and recover sites)
// can tell an injected panic from a real bug.
type Panic struct {
	Point  Point
	Detail string
}

func (p *Panic) Error() string {
	return "faultinject: injected panic at " + p.Point.String() + " " + p.Detail
}

// Trigger arms one injection point.
type Trigger struct {
	// Point is the site this trigger arms.
	Point Point
	// Match, when non-empty, restricts firing to hits whose detail
	// contains it (substring). Content-addressed faults are deterministic
	// regardless of scheduling.
	Match string
	// After skips that many matching hits before the first firing
	// (0 = fire on the first matching hit).
	After int
	// Every re-fires on every further matching hit when > 0; otherwise
	// the trigger fires exactly once.
	Every int
	// Do is the action the site takes when the trigger fires.
	Do Action
	// Sleep is how long an ActDelay firing stalls the site. Ignored for
	// other actions.
	Sleep time.Duration
}

// Plan is an installed set of triggers. Plans are immutable once activated;
// per-trigger counters use atomics so concurrent sessions (the engine's
// worker pool) may hit sites in parallel under -race.
type Plan struct {
	triggers [numPoints][]*armedAtomic
}

type armedAtomic struct {
	t     Trigger
	hits  atomic.Int64
	fired atomic.Int64
}

// NewPlan builds a plan from triggers.
func NewPlan(triggers ...Trigger) *Plan {
	p := &Plan{}
	for _, t := range triggers {
		if t.Point >= numPoints {
			continue
		}
		p.triggers[t.Point] = append(p.triggers[t.Point], &armedAtomic{t: t})
	}
	return p
}

// NewRandomPlan derives a single-trigger plan from a seed: it arms point
// with action do after a pseudo-random number of hits in [0, maxAfter).
// The same seed always produces the same plan — randomized fault timing
// with reproducible failures.
func NewRandomPlan(seed int64, point Point, do Action, maxAfter int) *Plan {
	rng := rand.New(rand.NewSource(seed))
	after := 0
	if maxAfter > 0 {
		after = rng.Intn(maxAfter)
	}
	return NewPlan(Trigger{Point: point, After: after, Do: do})
}

var (
	mu      sync.Mutex
	enabled atomic.Bool
	active  atomic.Pointer[Plan]
)

// Activate installs a plan. Sites start consulting it immediately; call
// Deactivate (usually via defer) to disarm. Activating a new plan replaces
// the previous one.
func Activate(p *Plan) {
	mu.Lock()
	defer mu.Unlock()
	active.Store(p)
	enabled.Store(p != nil)
}

// Deactivate disarms all injection points.
func Deactivate() { Activate(nil) }

// Enabled reports whether any plan is active. Sites use it as the
// zero-cost guard before assembling detail strings.
func Enabled() bool { return enabled.Load() }

// Fire consults the active plan for point. It returns the action to take —
// ActNone when no plan is active or no trigger fires. Callers should guard
// with Enabled() so the detail string is only built when a plan is live.
// A firing ActDelay trigger is reported as ActNone — a site that cannot
// stall must not misread the delay as an error; use FireTimed at sites
// that can.
func Fire(point Point, detail string) Action {
	act, _ := FireTimed(point, detail)
	if act == ActDelay {
		return ActNone
	}
	return act
}

// FireTimed is Fire for delay-aware sites: along with the action it returns
// the stall duration an ActDelay trigger asks for. The site is responsible
// for sleeping — FireTimed itself never blocks.
func FireTimed(point Point, detail string) (Action, time.Duration) {
	p := active.Load()
	if p == nil {
		return ActNone, 0
	}
	for _, a := range p.triggers[point] {
		if a.t.Match != "" && !strings.Contains(detail, a.t.Match) {
			continue
		}
		hit := a.hits.Add(1) - 1 // 0-based index of this matching hit
		if hit < int64(a.t.After) {
			continue
		}
		if a.t.Every > 0 {
			if (hit-int64(a.t.After))%int64(a.t.Every) == 0 {
				a.fired.Add(1)
				return a.t.Do, a.t.Sleep
			}
			continue
		}
		if a.fired.CompareAndSwap(0, 1) {
			return a.t.Do, a.t.Sleep
		}
	}
	return ActNone, 0
}

// Fired reports how many times any trigger on point has fired under the
// active plan (0 when no plan is active).
func Fired(point Point) int {
	p := active.Load()
	if p == nil {
		return 0
	}
	n := 0
	for _, a := range p.triggers[point] {
		n += int(a.fired.Load())
	}
	return n
}
