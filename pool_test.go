package incremental

import (
	"strings"
	"testing"
)

func pooledLangs() map[string]*Language {
	return map[string]*Language{
		"expr":           ExprLanguage(),
		"expr-ambiguous": AmbiguousExprLanguage(),
		"c-subset":       CSubset(),
		"cpp-subset":     CPPSubset(),
		"java-subset":    JavaSubset(),
		"lisp-subset":    LispSubset(),
		"modula2-subset": Modula2Subset(),
		"lr2-figure7":    LR2Language(),
		"scannerless":    ScannerlessLanguage(),
	}
}

func pooledSource(name string) string {
	switch name {
	case "expr", "expr-ambiguous":
		return "a + b * (c - 42) / -d"
	case "c-subset":
		return "typedef int T; T x; x = f(x, 1) + 2; return x + 1;"
	case "cpp-subset":
		return "typedef int T; T(x); if (x) return 1; else return 2;"
	case "java-subset":
		return "class B { static void main() { int[] a = new int[8]; a[0] = 1; } }"
	case "lisp-subset":
		return `(define (sq x) (* x x)) (cons 1 '(2 3))`
	case "modula2-subset":
		return "MODULE M; VAR x: INTEGER; BEGIN x := 1; IF x = 1 THEN x := 2 END END M."
	case "lr2-figure7":
		return "x z c"
	case "scannerless":
		return "if(a+1)x=2;"
	}
	panic("unknown " + name)
}

// TestPooledSessionsMatchFresh: for every bundled language, a session from
// a recycled pool item commits a tree byte-identical (FormatDag) to a
// fresh session's, across several generations of reuse.
func TestPooledSessionsMatchFresh(t *testing.T) {
	for name, lang := range pooledLangs() {
		t.Run(name, func(t *testing.T) {
			src := pooledSource(name)
			pool := NewPool(lang)
			fresh := NewSession(lang, src)
			fr := fresh.Do(nil)
			var want string
			if fr.Err == nil {
				want = FormatDag(lang, fr.Root)
			}
			for gen := 0; gen < 4; gen++ {
				s := pool.NewSession(src)
				out := s.Do(nil)
				if (out.Err == nil) != (fr.Err == nil) {
					t.Fatalf("gen %d: pooled err %v, fresh err %v", gen, out.Err, fr.Err)
				}
				if out.Err == nil {
					if got := FormatDag(lang, out.Root); got != want {
						t.Fatalf("gen %d: pooled tree diverges from fresh\n--- pooled\n%s\n--- fresh\n%s", gen, got, want)
					}
				}
				pool.Recycle(s)
			}
		})
	}
}

// TestPooledSessionEditing: a recycled session supports the full editing
// lifecycle (edit → reparse → tree equality with an unpooled twin).
func TestPooledSessionEditing(t *testing.T) {
	lang := ExprLanguage()
	pool := NewPool(lang)

	warm := pool.NewSession("1 + 1")
	warm.Do(nil)
	pool.Recycle(warm)

	s := pool.NewSession("a + b * c")
	twin := NewSession(lang, "a + b * c")
	for _, step := range []struct {
		off, rem int
		ins      string
	}{{4, 1, "(x - 2)"}, {0, 1, "zz"}, {3, 0, " + 9"}} {
		s.Edit(step.off, step.rem, step.ins)
		twin.Edit(step.off, step.rem, step.ins)
		a, b := s.Do(nil), twin.Do(nil)
		if (a.Err == nil) != (b.Err == nil) {
			t.Fatalf("pooled err %v, twin err %v", a.Err, b.Err)
		}
		if a.Err == nil && FormatDag(lang, a.Root) != FormatDag(lang, b.Root) {
			t.Fatal("pooled session tree diverges from twin after edit")
		}
	}
	pool.Recycle(s)
}

// TestPooledReparseAllocFree: the pooled path preserves the
// zero-allocation guarantee for a clean reparse — the guard the
// arena-pooling layer must not break.
func TestPooledReparseAllocFree(t *testing.T) {
	lang := Modula2Subset()
	pool := NewPool(lang)
	warm := pool.NewSession(pooledSource("modula2-subset"))
	warm.Do(nil)
	pool.Recycle(warm)

	s := pool.NewSession(pooledSource("modula2-subset"))
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if out := s.Do(nil); out.Err != nil {
			t.Fatal(out.Err)
		}
	})
	if allocs != 0 {
		t.Fatalf("pooled clean reparse allocates: %v allocs/op", allocs)
	}
	pool.Recycle(s)
}

// TestPoolReducesAllocations: parsing a stream of files through a pool
// allocates measurably less than fresh sessions.
func TestPoolReducesAllocations(t *testing.T) {
	lang := ExprLanguage()
	src := strings.Repeat("a + b * (c - 42) / -d + ", 40) + "e"

	freshAllocs := testing.AllocsPerRun(50, func() {
		s := NewSession(lang, src)
		if out := s.Do(nil); out.Err != nil {
			t.Fatal(out.Err)
		}
	})
	pool := NewPool(lang)
	warm := pool.NewSession(src)
	warm.Do(nil)
	pool.Recycle(warm)
	pooledAllocs := testing.AllocsPerRun(50, func() {
		s := pool.NewSession(src)
		if out := s.Do(nil); out.Err != nil {
			t.Fatal(out.Err)
		}
		pool.Recycle(s)
	})
	if pooledAllocs >= freshAllocs {
		t.Fatalf("pooling saves nothing: pooled %v allocs/op, fresh %v", pooledAllocs, freshAllocs)
	}
	t.Logf("allocs/op: fresh %.0f, pooled %.0f", freshAllocs, pooledAllocs)
}

// TestRecycleForeignSession: recycling nil or a session from another
// language is a safe no-op.
func TestRecycleForeignSession(t *testing.T) {
	pool := NewPool(ExprLanguage())
	pool.Recycle(nil)
	other := NewSession(LispSubset(), "(a)")
	pool.Recycle(other)
	if other.doc == nil {
		t.Fatal("foreign session was poisoned by the wrong pool")
	}
	// A pool of the right language still works after the misuse.
	s := pool.NewSession("1 + 2")
	if out := s.Do(nil); out.Err != nil {
		t.Fatal(out.Err)
	}
}
