package engine

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	incremental "iglr"
	"iglr/internal/faultinject"
)

func pathologicalInput(t *testing.T) Input {
	t.Helper()
	b, err := os.ReadFile("../testdata/pathological_expr.txt")
	if err != nil {
		t.Fatal(err)
	}
	return Input{Name: "pathological.expr", Source: strings.TrimSpace(string(b))}
}

// The policy's headline flow: the strict budget trips on a pathological
// file, the retry runs under the degraded budget, and the file completes
// at reduced fidelity instead of failing.
func TestPolicyDegradedRetryCompletesPathologicalFile(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	inputs := []Input{
		{Name: "ok.expr", Source: "1+2*3"},
		pathologicalInput(t),
	}
	degraded := incremental.Budget{MaxAlternatives: 1}
	b, err := AnalyzeAll(context.Background(), lang, inputs,
		WithWorkers(2),
		WithPolicy(Policy{
			Budget:         incremental.Budget{MaxGSSLinks: 64},
			Retries:        1,
			DegradedBudget: &degraded,
		}))
	if err != nil {
		t.Fatal(err)
	}
	ok, bad := b.Results[0], b.Results[1]
	if ok.Err != nil || ok.Attempts != 1 || ok.Degraded || ok.BudgetTrips != 0 {
		t.Fatalf("healthy file: %+v", ok)
	}
	if bad.Err != nil {
		t.Fatalf("pathological file should complete degraded: %v", bad.Err)
	}
	if bad.Attempts != 2 || !bad.Degraded || bad.BudgetTrips != 1 {
		t.Fatalf("attempts=%d degraded=%v trips=%d", bad.Attempts, bad.Degraded, bad.BudgetTrips)
	}
	if bad.Stats.BudgetPruned == 0 {
		t.Fatal("the degraded parse must have pruned")
	}
	if b.Aggregate.Failed != 0 || b.Aggregate.Degraded != 1 || b.Aggregate.BudgetTrips != 1 {
		t.Fatalf("aggregate = %+v", b.Aggregate)
	}
	// AnalyzeAll measured the degraded dag: the pruned regions show up in
	// the aggregated space statistics.
	if bad.Dag.BudgetPruned == 0 || b.Aggregate.Dag.BudgetPruned == 0 {
		t.Fatalf("pruned regions missing from dag stats: file=%+v agg=%+v", bad.Dag, b.Aggregate.Dag)
	}
}

// Without a degraded budget the retries rerun the same losing parse; the
// file fails with the budget error and every trip is counted.
func TestPolicyBudgetExhaustionFailsFile(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	b, err := ParseAll(context.Background(), lang, []Input{pathologicalInput(t)},
		WithPolicy(Policy{Budget: incremental.Budget{MaxGSSNodes: 16}, Retries: 2}))
	if err != nil {
		t.Fatal(err)
	}
	r := b.Results[0]
	if !errors.Is(r.Err, incremental.ErrBudget) {
		t.Fatalf("err = %v, want a budget trip", r.Err)
	}
	if r.Attempts != 3 || r.BudgetTrips != 3 {
		t.Fatalf("attempts=%d trips=%d, want 3/3", r.Attempts, r.BudgetTrips)
	}
	if b.Aggregate.Failed != 1 || b.Aggregate.BudgetTrips != 3 || b.Aggregate.Degraded != 0 {
		t.Fatalf("aggregate = %+v", b.Aggregate)
	}
}

// Syntax errors are deterministic: retrying them is pointless and the
// policy must not.
func TestPolicyDoesNotRetrySyntaxErrors(t *testing.T) {
	lang := incremental.CSubset()
	b, err := ParseAll(context.Background(), lang,
		[]Input{{Name: "broken.c", Source: "int a; !!!"}},
		WithPolicy(Policy{Retries: 3, Backoff: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	r := b.Results[0]
	if r.Err == nil || r.Attempts != 1 {
		t.Fatalf("attempts=%d err=%v, want one failed attempt", r.Attempts, r.Err)
	}
}

// FileTimeout bounds each attempt with a per-file deadline, and expiries
// are retryable.
func TestPolicyFileTimeout(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	b, err := ParseAll(context.Background(), lang, []Input{pathologicalInput(t)},
		WithPolicy(Policy{FileTimeout: time.Nanosecond, Retries: 1}))
	if err != nil {
		t.Fatal(err)
	}
	r := b.Results[0]
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", r.Err)
	}
	if r.Attempts != 2 {
		t.Fatalf("attempts = %d, want the expiry retried once", r.Attempts)
	}
}

// A transient panic (injected once, mid-reduction) is recovered, retried,
// and the file completes on the clean attempt.
func TestPolicyRetriesRecoveredPanic(t *testing.T) {
	faultinject.Activate(faultinject.NewPlan(faultinject.Trigger{
		Point: faultinject.Reduce, Do: faultinject.ActPanic}))
	defer faultinject.Deactivate()

	lang := incremental.CSubset()
	b, err := ParseAll(context.Background(), lang,
		[]Input{{Name: "flaky.c", Source: "int a; a = 1;"}},
		WithPolicy(Policy{Retries: 1}))
	if err != nil {
		t.Fatal(err)
	}
	r := b.Results[0]
	if r.Err != nil || r.Root == nil {
		t.Fatalf("file should complete on retry: %v", r.Err)
	}
	if r.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", r.Attempts)
	}
}

// Satellite: panic isolation across pipeline stages. Content-matched
// triggers follow a token unique to one file, so exactly that file fails —
// deterministically, regardless of worker scheduling — at the lexing and
// reducing stages.
func TestPolicyPanicIsolationAcrossStages(t *testing.T) {
	lang := incremental.CSubset()
	inputs := []Input{
		{Name: "a.c", Source: "int a; a = 1;"},
		{Name: "boom.c", Source: "int kaboom; kaboom = 1;"},
		{Name: "b.c", Source: "int b; b = 2;"},
	}
	for _, stage := range []faultinject.Point{faultinject.LexTerminal, faultinject.Reduce} {
		t.Run(stage.String(), func(t *testing.T) {
			faultinject.Activate(faultinject.NewPlan(faultinject.Trigger{
				Point: stage, Match: "kaboom", Every: 1, Do: faultinject.ActPanic}))
			defer faultinject.Deactivate()

			b, err := AnalyzeAll(context.Background(), lang, inputs, WithWorkers(3))
			if err != nil {
				t.Fatal(err)
			}
			var pe *PanicError
			if !errors.As(b.Results[1].Err, &pe) {
				t.Fatalf("boom.c err = %v, want *PanicError", b.Results[1].Err)
			}
			if fp, ok := pe.Value.(*faultinject.Panic); !ok || fp.Point != stage {
				t.Fatalf("recovered %v, want the injected %v panic", pe.Value, stage)
			}
			if len(pe.Stack) == 0 {
				t.Fatal("panic result should carry the stack")
			}
			for _, i := range []int{0, 2} {
				if r := b.Results[i]; r.Err != nil || r.Root == nil {
					t.Fatalf("healthy %s failed: %v", r.Name, r.Err)
				}
			}
			if b.Aggregate.Failed != 1 {
				t.Fatalf("failed = %d", b.Aggregate.Failed)
			}
			if b.Aggregate.Dag.DagNodes == 0 {
				t.Fatal("healthy files' analysis missing from aggregates")
			}
		})
	}
}

// Policy is the one knobs struct a daemon config marshals into the
// engine: the worker count folds in, JSON round-trips losslessly, and
// WithWorkers/WithPolicy compose in either order.
func TestPolicyIsTheOneKnobsStruct(t *testing.T) {
	degraded := incremental.Budget{MaxAlternatives: 2}
	p := Policy{
		Workers:        3,
		Budget:         incremental.Budget{MaxGSSLinks: 1024, MaxDuration: 50 * time.Millisecond},
		FileTimeout:    time.Second,
		Retries:        2,
		Backoff:        5 * time.Millisecond,
		DegradedBudget: &degraded,
		Tolerant:       true,
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Policy
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("Policy JSON round-trip lost data:\nin:  %+v\nout: %+v", p, back)
	}

	// The daemon-side spelling: a config file sets workers inside the
	// policy, nothing else needed.
	var fromJSON Policy
	if err := json.Unmarshal([]byte(`{"workers":2,"tolerant":true,"budget":{"max_gss_links":64}}`), &fromJSON); err != nil {
		t.Fatal(err)
	}
	if fromJSON.Workers != 2 || !fromJSON.Tolerant || fromJSON.Budget.MaxGSSLinks != 64 {
		t.Fatalf("unmarshal = %+v", fromJSON)
	}

	// Option composition: either order yields workers=4 + tolerant.
	for _, opts := range [][]Option{
		{WithWorkers(4), WithPolicy(Policy{Tolerant: true})},
		{WithPolicy(Policy{Tolerant: true}), WithWorkers(4)},
	} {
		var c config
		for _, o := range opts {
			o(&c)
		}
		if c.policy.Workers != 4 || !c.policy.Tolerant {
			t.Fatalf("composed policy = %+v", c.policy)
		}
	}
	// An explicit Policy.Workers wins over an earlier WithWorkers.
	var c config
	WithWorkers(4)(&c)
	WithPolicy(Policy{Workers: 8})(&c)
	if c.policy.Workers != 8 {
		t.Fatalf("explicit Policy.Workers overridden: %+v", c.policy)
	}
}
