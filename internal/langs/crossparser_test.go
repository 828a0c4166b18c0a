package langs_test

import (
	"testing"

	"iglr/internal/dag"
	"iglr/internal/detparse"
	"iglr/internal/document"
	"iglr/internal/iglr"
	"iglr/internal/langs"
	"iglr/internal/langs/cppsub"
	"iglr/internal/langs/csub"
	"iglr/internal/langs/expr"
	"iglr/internal/langs/javasub"
	"iglr/internal/langs/lispsub"
	"iglr/internal/langs/lr2"
	"iglr/internal/langs/mod2sub"
	"iglr/internal/langs/scannerless"
	"iglr/internal/lr"
)

// TestParsersAgreeAcrossLanguagesAndMethods is the three-way differential:
// for every bundled language and every table construction method, the IGLR
// parser (burst on and off) and — when the table is deterministic — the §5
// reference parser (detparse) must produce byte-identical FormatDag output.
func TestParsersAgreeAcrossLanguagesAndMethods(t *testing.T) {
	cases := []struct {
		name string
		bld  func() *langs.Builder
		src  string
	}{
		{"expr", expr.NewBuilder, "1 + 2 * x + (y * 3)"},
		{"csub", csub.NewBuilder, "typedef int t; t(a); int b; b = b + 1; { int c; c = b; }"},
		{"cppsub", cppsub.NewBuilder, "typedef int a; a(b); c(q); int z; z = q + 1;"},
		{"javasub", javasub.NewBuilder, "class A { int[] xs; void m() { xs[0] = 1; } }"},
		{"lispsub", lispsub.NewBuilder, "(define (f x) (* x x)) (f 3) '(a b \"s\")"},
		{"mod2sub", mod2sub.NewBuilder, "MODULE M;\nVAR x : INTEGER;\nBEGIN\n  x := 1\nEND M.\n"},
		{"scannerless", scannerless.NewBuilder, "if(cond)x=1;"},
		{"lr2", lr2.NewBuilder, "x z c"},
	}
	methods := []lr.Method{lr.SLR, lr.LALR, lr.LR1}
	for _, c := range cases {
		for _, m := range methods {
			t.Run(c.name+"/"+m.String(), func(t *testing.T) {
				b := c.bld()
				b.Options.Method = m
				var l *langs.Language
				func() {
					defer func() {
						if r := recover(); r != nil {
							// Some grammars only build under some methods
							// (e.g. SLR conflicts the builder rejects).
							l = nil
						}
					}()
					l = b.Lang()
				}()
				if l == nil {
					t.Skipf("%s does not build with %s", c.name, m)
				}

				parse := func(noBurst bool) (*dag.Node, *document.Document) {
					d := l.NewDocument(c.src)
					p := iglr.New(l.Table)
					p.NoBurst = noBurst
					root, err := p.Parse(d.Stream())
					if err != nil {
						t.Fatalf("iglr(noBurst=%v): %v", noBurst, err)
					}
					return root, d
				}
				rootBurst, _ := parse(false)
				rootRounds, _ := parse(true)
				want := dag.Format(l.Grammar, rootRounds)
				if got := dag.Format(l.Grammar, rootBurst); got != want {
					t.Fatal("burst and round-engine trees differ")
				}

				if !l.Table.Deterministic() {
					return
				}
				dp, err := detparse.New(l.Table)
				if err != nil {
					t.Fatal(err)
				}
				dDet := l.NewDocument(c.src)
				rootDet, err := dp.Parse(dDet.Stream())
				if err != nil {
					t.Fatalf("detparse: %v", err)
				}
				if got := dag.Format(l.Grammar, rootDet); got != want {
					t.Fatal("detparse tree differs from IGLR")
				}
			})
		}
	}
}
