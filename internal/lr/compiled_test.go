package lr

import (
	"bytes"
	"testing"

	"iglr/internal/grammar"
)

// roundTrip builds src, serializes the grammar and the compiled table the
// way a language artifact carries them, and decodes both back.
func roundTrip(t *testing.T, src string, opts Options) (*Table, *Table) {
	t.Helper()
	orig := build(t, src, opts)
	data := orig.AppendCompiled(orig.Grammar().AppendBinary(nil))
	g, rest, err := grammar.DecodeBinary(data)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	loaded, rest, err := DecodeCompiled(g, rest)
	if err != nil {
		t.Fatalf("DecodeCompiled: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("decoder left %d bytes", len(rest))
	}
	if again := loaded.AppendCompiled(g.AppendBinary(nil)); !bytes.Equal(again, data) {
		t.Fatal("re-encoded table differs")
	}
	return orig, loaded
}

func TestEncodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		opts      Options
	}{
		{"expr", exprSrc, Options{Method: LALR}},
		{"figure7", figure7Src, Options{Method: LALR}},
		{"lr1", exprSrc, Options{Method: LR1}},
		{"prefer-shift", `
%token i t e o
%start S
S : i S t S | i S t S e S | o ;`, Options{Method: LALR, PreferShift: true}},
		{"sequences", `
%token x ';'
%start B
B : Stmt* ;
Stmt : x ';' ;`, Options{Method: LALR}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig, loaded := roundTrip(t, tc.src, tc.opts)
			if loaded.NumStates() != orig.NumStates() || loaded.Method() != orig.Method() {
				t.Fatalf("shape mismatch: %v vs %v", loaded, orig)
			}
			g, lg := orig.Grammar(), loaded.Grammar()
			if g.NumSymbols() != lg.NumSymbols() || g.NumProductions() != lg.NumProductions() {
				t.Fatalf("grammar shape mismatch")
			}
			for i := 0; i < g.NumSymbols(); i++ {
				if g.Symbol(grammar.Sym(i)) != lg.Symbol(grammar.Sym(i)) {
					t.Fatalf("symbol %d differs: %+v vs %+v",
						i, g.Symbol(grammar.Sym(i)), lg.Symbol(grammar.Sym(i)))
				}
			}
			// Every cell identical.
			for st := 0; st < orig.NumStates(); st++ {
				for s := 0; s < g.NumSymbols(); s++ {
					sym := grammar.Sym(s)
					if g.IsTerminal(sym) {
						if !sameActions(orig.Actions(st, sym), loaded.Actions(st, sym)) {
							t.Fatalf("actions differ at (%d,%s)", st, g.Name(sym))
						}
					}
					if orig.Goto(st, sym) != loaded.Goto(st, sym) {
						t.Fatalf("goto differs at (%d,%s)", st, g.Name(sym))
					}
					if !g.IsTerminal(sym) {
						if !sameActions(orig.NontermActions(st, sym), loaded.NontermActions(st, sym)) {
							t.Fatalf("nonterm actions differ at (%d,%s)", st, g.Name(sym))
						}
					}
				}
			}
			if len(orig.Conflicts()) != len(loaded.Conflicts()) {
				t.Fatalf("conflicts %d vs %d", len(orig.Conflicts()), len(loaded.Conflicts()))
			}
			if len(orig.Resolutions()) != len(loaded.Resolutions()) {
				t.Fatalf("resolutions differ")
			}
			// The loaded table drives a parse identically.
			if tc.name == "expr" {
				gg := loaded.Grammar()
				if !run(t, loaded, toSyms(t, gg, "ID", "'+'", "ID", "'*'", "NUM")) {
					t.Fatal("loaded table rejects a valid sentence")
				}
				if run(t, loaded, toSyms(t, gg, "'+'")) {
					t.Fatal("loaded table accepts an invalid sentence")
				}
			}
		})
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	orig := build(t, exprSrc, Options{Method: LALR})
	g := orig.Grammar()
	for _, data := range [][]byte{
		nil,
		[]byte("nope"),
		[]byte("IGTC"),
		[]byte("IGTC\x01garbage-that-is-not-a-table"),
	} {
		if _, _, err := DecodeCompiled(g, data); err == nil {
			t.Fatalf("DecodeCompiled(%q) should fail", data)
		}
	}
	// Truncations of a valid stream must error, not panic.
	full := orig.AppendCompiled(nil)
	for _, cut := range []int{5, 10, len(full) / 2, len(full) - 3} {
		if _, _, err := DecodeCompiled(g, full[:cut]); err == nil {
			t.Fatalf("DecodeCompiled of %d-byte truncation should fail", cut)
		}
	}
}

func TestGrammarBinaryRoundTrip(t *testing.T) {
	g, err := grammar.Parse(exprSrc)
	if err != nil {
		t.Fatal(err)
	}
	data := g.AppendBinary(nil)
	g2, rest, err := grammar.DecodeBinary(append(data, 0xAB, 0xCD))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 {
		t.Fatalf("rest = %d bytes", len(rest))
	}
	if g2.String() != g.String() {
		t.Fatalf("grammar round trip mismatch:\n%s\nvs\n%s", g2.String(), g.String())
	}
	// Analyses recomputed.
	if !g2.First(g2.Start()).Equal(g.First(g.Start())) {
		t.Fatal("FIRST sets differ after round trip")
	}
}
