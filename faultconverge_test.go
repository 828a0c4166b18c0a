package incremental_test

import (
	"testing"

	incremental "iglr"
	"iglr/internal/faultinject"
)

// The convergence suite: error isolation's "always converge" guarantee,
// extended from user syntax errors to infrastructure faults.
// For every injection point we force a fault during a reparse and prove
// (a) the committed tree is exactly the pre-fault tree — same root, same
// rendering — and (b) once the fault clears, the same pending edit
// reparses to the correct result. Faults may surface as errors or as
// panics; either way nothing corrupts committed state.

// faultSession builds a committed baseline over the ambiguous expression
// grammar and returns the session plus the committed root and rendering.
func faultSession(t *testing.T) (*incremental.Session, *incremental.Node, string) {
	t.Helper()
	lang := incremental.AmbiguousExprLanguage()
	s := incremental.NewSession(lang, "1+2*3")
	out := s.Do(nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	return s, out.Root, incremental.FormatDag(lang, out.Root)
}

// parseRecovering runs one parse, converting an injected panic into an
// error so the suite can treat every fault uniformly.
func parseRecovering(s *incremental.Session) (err error) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = r.(*faultinject.Panic); !ok {
				panic(r) // a real bug: do not mask it
			}
		}
	}()
	return s.Do(nil).Err
}

func TestFaultConvergenceAcrossParsePoints(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	cases := []struct {
		name string
		plan *faultinject.Plan
	}{
		{"round-cancel", faultinject.NewPlan(faultinject.Trigger{
			Point: faultinject.ParseRound, Do: faultinject.ActCancel})},
		{"round-panic", faultinject.NewPlan(faultinject.Trigger{
			Point: faultinject.ParseRound, Do: faultinject.ActPanic})},
		{"reduce-panic-first", faultinject.NewPlan(faultinject.Trigger{
			Point: faultinject.Reduce, Do: faultinject.ActPanic})},
		{"reduce-panic-later", faultinject.NewPlan(faultinject.Trigger{
			Point: faultinject.Reduce, After: 5, Do: faultinject.ActPanic})},
		{"arena-budget", faultinject.NewPlan(faultinject.Trigger{
			Point: faultinject.ArenaAlloc, Do: faultinject.ActBudget})},
		{"arena-budget-later", faultinject.NewPlan(faultinject.Trigger{
			Point: faultinject.ArenaAlloc, After: 3, Do: faultinject.ActBudget})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, root, before := faultSession(t)
			s.Edit(s.Len(), 0, "-4")

			faultinject.Activate(tc.plan)
			err := parseRecovering(s)
			faultinject.Deactivate()
			if err == nil {
				t.Fatal("the injected fault must abort the reparse")
			}

			if s.Tree() != root {
				t.Fatal("fault changed the committed root")
			}
			if got := incremental.FormatDag(lang, s.Tree()); got != before {
				t.Fatalf("fault corrupted the committed tree:\n%s", got)
			}

			// Fault cleared: the pending edit parses on retry.
			out := s.Do(nil)
			if out.Err != nil {
				t.Fatalf("post-fault reparse failed: %v", out.Err)
			}
			if out.Root.Yield() != "1+2*3-4" {
				t.Fatalf("post-fault yield = %q", out.Root.Yield())
			}
		})
	}
}

// Randomized fault timing: cancellation injected at a seed-derived round
// count, across many seeds. Any round is a safe point to die at.
func TestFaultConvergenceRandomizedRounds(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	for seed := int64(0); seed < 20; seed++ {
		s, root, before := faultSession(t)
		s.Edit(s.Len(), 0, "+9*8-7")

		faultinject.Activate(faultinject.NewRandomPlan(seed, faultinject.ParseRound, faultinject.ActCancel, 6))
		err := parseRecovering(s)
		fired := faultinject.Fired(faultinject.ParseRound) > 0
		faultinject.Deactivate()

		if fired {
			if err == nil {
				t.Fatalf("seed %d: fired but parse succeeded", seed)
			}
			if s.Tree() != root || incremental.FormatDag(lang, s.Tree()) != before {
				t.Fatalf("seed %d: fault corrupted committed state", seed)
			}
			if out := s.Do(nil); out.Err != nil {
				t.Fatalf("seed %d: post-fault reparse failed: %v", seed, out.Err)
			}
		} else if err != nil {
			// Countdown outlived the parse: it must have just succeeded.
			t.Fatalf("seed %d: no fault fired yet parse failed: %v", seed, err)
		}
		if got := s.Tree().Yield(); got != "1+2*3+9*8-7" {
			t.Fatalf("seed %d: converged yield = %q", seed, got)
		}
	}
}

// A lexical fault corrupts a token *in the document*, so plain retry
// cannot converge — but tolerant isolation does: the edit stays in the
// text, quarantined and reported, and once the fault clears, retyping the
// edit converges to the cold parse.
func TestFaultConvergenceLexErrorViaRecovery(t *testing.T) {
	lang := incremental.AmbiguousExprLanguage()
	s, _, _ := faultSession(t)

	// Every: 1 corrupts each terminal the edit creates for "777".
	faultinject.Activate(faultinject.NewPlan(faultinject.Trigger{
		Point: faultinject.LexTerminal, Match: "777", Every: 1, Do: faultinject.ActError}))
	s.Edit(s.Len(), 0, "+777")
	out := s.Do(nil, incremental.Tolerant())
	faultinject.Deactivate()

	if out.Err != nil || out.Clean || !out.Isolated {
		t.Fatalf("the corrupted token must be isolated: %+v", out)
	}
	if s.Text() != "1+2*3+777" {
		t.Fatalf("isolation must keep the text, got %q", s.Text())
	}
	ds := s.Diagnostics()
	if len(ds) != 1 || ds[0].Offset > 6 || ds[0].Offset+ds[0].Length < 9 {
		t.Fatalf("want one diagnostic covering 777, got %v", ds)
	}

	// Fault cleared: the corrupted terminal node survives a relex of the
	// same bytes, so delete the edit, parse, and type it again.
	s.Edit(5, 4, "")
	if out = s.Do(nil); out.Err != nil || out.Root.Yield() != "1+2*3" {
		t.Fatalf("after deleting the edit: %v, %+v", out.Err, out)
	}
	s.Edit(5, 0, "+777")
	out = s.Do(nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	cold := incremental.NewSession(lang, "1+2*3+777").Do(nil)
	if got, want := incremental.FormatDag(lang, out.Root), incremental.FormatDag(lang, cold.Root); got != want {
		t.Fatalf("retyped edit differs from the cold parse:\n%s\nwant\n%s", got, want)
	}
}

// A panic inside semantic resolution must not disturb the committed dag;
// the pass can simply be re-run once the fault clears.
func TestFaultConvergenceResolvePanic(t *testing.T) {
	lang := incremental.CPPSubset()
	s := incremental.NewSession(lang, "typedef int a; a(b); c(d);")
	out := s.Do(nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	root := out.Root
	before := incremental.FormatDag(lang, root)

	faultinject.Activate(faultinject.NewPlan(faultinject.Trigger{
		Point: faultinject.Resolve, Do: faultinject.ActPanic}))
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected the injected resolve panic")
			} else if _, ok := r.(*faultinject.Panic); !ok {
				panic(r)
			}
		}()
		s.Resolve()
	}()
	faultinject.Deactivate()

	if s.Tree() != root || incremental.FormatDag(lang, s.Tree()) != before {
		t.Fatal("resolve panic corrupted the committed dag")
	}
	res := s.Resolve()
	if res.ResolvedDecl+res.ResolvedStmt == 0 {
		t.Fatal("post-fault resolve should disambiguate the typedef uses")
	}
}
