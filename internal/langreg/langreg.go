// Package langreg is the registry of bundled languages. It exists so the
// artifact tooling (cmd/langc, the codec benchmarks and differential tests)
// can enumerate every bundled definition — both the shared built instance
// and a fresh builder for recompiling under different table options — without
// each tool hard-coding the list. It lives below the public package so both
// the root package and the commands can import it.
package langreg

import (
	"iglr/internal/langs"
	"iglr/internal/langs/cppsub"
	"iglr/internal/langs/csub"
	"iglr/internal/langs/expr"
	"iglr/internal/langs/javasub"
	"iglr/internal/langs/lispsub"
	"iglr/internal/langs/lr2"
	"iglr/internal/langs/mod2sub"
	"iglr/internal/langs/scannerless"
)

// Entry describes one bundled language.
type Entry struct {
	Name string
	// Fresh returns a new, un-built builder for the definition, so callers
	// can override table options (e.g. recompile as SLR or LR(1)) without
	// touching the shared instance.
	Fresh func() *langs.Builder
	// Lang returns the shared built instance (panics on build failure —
	// bundled definitions are static and tested).
	Lang func() *langs.Language
	// Samples are small representative programs used by differential tests
	// and benchmarks.
	Samples []string
}

// All returns every bundled language, name-sorted.
func All() []Entry {
	return []Entry{
		{
			Name: "c-subset", Fresh: csub.NewBuilder, Lang: csub.Lang,
			Samples: []string{
				"typedef int T; T x; x = f(x, 1) + 2; return x + 1;",
				"int a = 1; { a * b; c = a + 2; } /* note */",
			},
		},
		{
			Name: "cpp-subset", Fresh: cppsub.NewBuilder, Lang: cppsub.Lang,
			Samples: []string{
				"typedef int T; T(x); if (x) return 1; else return 2;",
				"int a = 3; while (a) { a = a + 1; } // done",
			},
		},
		{
			Name: "expr", Fresh: expr.NewBuilder, Lang: expr.Lang,
			Samples: []string{
				"a + b * (c - 42) / -d",
				"1 + 2 + 3 * x",
			},
		},
		{
			Name: "expr-ambiguous", Fresh: expr.NewAmbiguousBuilder, Lang: expr.AmbiguousLang,
			Samples: []string{
				"a + b * c",
				"(x + 1) / 2 - y",
			},
		},
		{
			Name: "java-subset", Fresh: javasub.NewBuilder, Lang: javasub.Lang,
			Samples: []string{
				`public class A { int f(int n) { if (n < 2) return n; return f(n - 1) + f(n - 2); } }`,
				`class B { static void main() { int[] a = new int[8]; a[0] = 1; } }`,
			},
		},
		{
			Name: "lisp-subset", Fresh: lispsub.NewBuilder, Lang: lispsub.Lang,
			Samples: []string{
				`(define (sq x) (* x x)) ; squares`,
				`(cons 1 '(2 3 "four"))`,
			},
		},
		{
			Name: "lr2-figure7", Fresh: lr2.NewBuilder, Lang: lr2.Lang,
			Samples: []string{"x z c", "x z e"},
		},
		{
			Name: "modula2-subset", Fresh: mod2sub.NewBuilder, Lang: mod2sub.Lang,
			Samples: []string{
				`MODULE M; VAR x: INTEGER; BEGIN x := 1; IF x = 1 THEN x := 2 END END M.`,
			},
		},
		{
			Name: "scannerless", Fresh: scannerless.NewBuilder, Lang: scannerless.Lang,
			Samples: []string{
				"if(a+1)x=2;",
				"abc=de+45;",
			},
		},
	}
}

// Find returns the entry for name, or false.
func Find(name string) (Entry, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}
