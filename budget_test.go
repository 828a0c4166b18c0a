package incremental_test

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	incremental "iglr"
)

// pathologicalExpr returns the committed fixture: a 60-term expression
// over the raw ambiguous grammar, whose full forest is astronomically
// large (Catalan growth in the number of operators).
func pathologicalExpr(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("testdata/pathological_expr.txt")
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(b))
}

// The headline degradation test: with an alternatives budget, the
// pathological input completes, the dag is marked BudgetPruned, and the
// forest collapses to a bounded parse count.
func TestPathologicalInputCompletesUnderAlternativesBudget(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	src := pathologicalExpr(t)

	s := incremental.NewSession(lang, src,
		incremental.WithBudget(incremental.Budget{MaxAlternatives: 2}))
	out := s.Do(nil)
	if out.Err != nil {
		t.Fatalf("budgeted parse of the pathological fixture failed: %v", out.Err)
	}
	root := out.Root
	if s.Stats().BudgetPruned == 0 {
		t.Fatal("the fixture must force ambiguity pruning")
	}
	ds := incremental.Measure(root)
	if ds.BudgetPruned == 0 {
		t.Fatal("pruned choice nodes must be marked BudgetPruned in the dag")
	}
	if ds.MaxAlternatives > 2 {
		t.Fatalf("widest choice node has %d alternatives, budget was 2", ds.MaxAlternatives)
	}
	// Pruning bounds the per-region fan-out, which collapses the forest
	// from the saturated cap (the unbudgeted count overflows 2^30) to
	// something enumerable.
	if got := incremental.CountParses(root); got >= 1<<30 {
		t.Fatalf("parse count %d not reduced by the budget", got)
	}
	if root.Yield() != src {
		t.Fatal("degraded tree must still yield the full input")
	}

	// The same input under MaxAlternatives=1 embeds a single parse.
	s1 := incremental.NewSession(lang, src,
		incremental.WithBudget(incremental.Budget{MaxAlternatives: 1}))
	out1 := s1.Do(nil)
	if out1.Err != nil {
		t.Fatal(out1.Err)
	}
	if got := incremental.CountParses(out1.Root); got != 1 {
		t.Fatalf("MaxAlternatives=1 should leave exactly one parse, got %d", got)
	}
}

func TestGSSBudgetAbortsPathologicalInput(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	src := pathologicalExpr(t)

	for _, tc := range []struct {
		name   string
		budget incremental.Budget
	}{
		{"nodes", incremental.Budget{MaxGSSNodes: 16}},
		{"links", incremental.Budget{MaxGSSLinks: 16}},
		{"arena", incremental.Budget{MaxArenaNodes: 8}},
		{"deadline", incremental.Budget{MaxDuration: time.Nanosecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := incremental.NewSession(lang, src, incremental.WithBudget(tc.budget))
			err := s.Do(nil).Err
			if err == nil {
				t.Fatal("tiny budget must abort the pathological parse")
			}
			var be *incremental.BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("err = %v (%T), want *BudgetError", err, err)
			}
			if !errors.Is(err, incremental.ErrBudget) {
				t.Fatal("budget errors must match ErrBudget")
			}
			if s.Tree() != nil {
				t.Fatal("an aborted first parse must not commit a tree")
			}
		})
	}
}

// An aborted reparse must leave the previously committed tree (and the
// ability to retry) intact: budgets bound work, they do not corrupt state.
func TestBudgetAbortLeavesCommittedTreeIntact(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	s := incremental.NewSession(lang, "1+2")
	base := s.Do(nil)
	if base.Err != nil {
		t.Fatal(base.Err)
	}

	// Grow the document into the pathological shape, under a budget too
	// small for it.
	s.SetBudget(incremental.Budget{MaxGSSLinks: 16})
	src := pathologicalExpr(t)
	s.Edit(s.Len(), 0, "+"+src)
	if err := s.Do(nil).Err; !errors.Is(err, incremental.ErrBudget) {
		t.Fatalf("err = %v, want a budget trip", err)
	}
	if s.Tree() != base.Root {
		t.Fatal("failed reparse must keep the last committed tree")
	}

	// Lifting the budget makes the same pending edit parse fine.
	s.SetBudget(incremental.Budget{})
	out := s.Do(nil)
	if out.Err != nil {
		t.Fatalf("retry without budget failed: %v", out.Err)
	}
	if out.Root.Yield() != "1+2+"+src {
		t.Fatal("retried parse must incorporate the pending edit")
	}
}

// Ample budgets must be invisible: same tree, same stats, no prunes.
func TestAmpleBudgetDoesNotChangeResults(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	src := "1+2*3-4"

	plain := incremental.NewSession(lang, src)
	want := plain.Do(nil)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	budgeted := incremental.NewSession(lang, src, incremental.WithBudget(incremental.Budget{
		MaxGSSNodes: 1 << 20, MaxGSSLinks: 1 << 20, MaxArenaNodes: 1 << 20,
		MaxAlternatives: 64, MaxDuration: time.Minute,
	}))
	got := budgeted.Do(nil)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if budgeted.Stats().BudgetPruned != 0 {
		t.Fatal("ample budget must not prune")
	}
	if incremental.FormatDag(lang, got.Root) != incremental.FormatDag(lang, want.Root) {
		t.Fatal("ample budget changed the parse result")
	}
}

// Cancellation latency: even mid-round — deep in the reducer worklist of a
// pathologically ambiguous region — the parser notices a dead context.
func TestCancellationLatencyInsidePathologicalRound(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	// Much larger than the fixture so one parse takes long enough to
	// observe a mid-flight deadline.
	src := strings.Repeat(pathologicalExpr(t)+"+", 8) + "1"
	s := incremental.NewSession(lang, src,
		incremental.WithBudget(incremental.Budget{MaxDuration: 2 * time.Millisecond}))

	start := time.Now()
	err := s.Do(nil).Err
	elapsed := time.Since(start)
	if !errors.Is(err, incremental.ErrBudget) {
		t.Fatalf("err = %v, want a deadline trip", err)
	}
	// The worklist poll (checkEvery=64 steps) must notice the deadline
	// long before the parse would finish; allow generous scheduler slack.
	if elapsed > 2*time.Second {
		t.Fatalf("deadline noticed only after %v", elapsed)
	}
	if s.Tree() != nil {
		t.Fatal("cancelled parse must not commit")
	}
}

// The same latency bound for external cancellation: a context deadline is
// noticed inside the reducer's worklist loop, so one token with massive
// local ambiguity cannot stall cancellation until the next round.
func TestContextDeadlineInsidePathologicalRound(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	src := strings.Repeat(pathologicalExpr(t)+"+", 8) + "1"
	s := incremental.NewSession(lang, src)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Do(ctx).Err
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation noticed only after %v", elapsed)
	}
	if s.Tree() != nil {
		t.Fatal("cancelled parse must not commit")
	}
	// The session is reusable: shrink the document to something tractable
	// and an un-cancelled retry succeeds.
	s.Edit(0, s.Len()-1, "")
	if out := s.Do(context.Background()); out.Err != nil {
		t.Fatalf("retry failed: %v", out.Err)
	}
}
