package earley_test

import (
	"testing"

	"iglr/internal/earley"
	"iglr/internal/grammar"
	"iglr/internal/iglr"
	"iglr/internal/langs"
	"iglr/internal/langs/csub"
	"iglr/internal/langs/expr"
	"iglr/internal/lexer"
)

// The Earley side bounds the input sizes: Recognize is fine into the tens
// of tokens, but CountParses is O(n³) with a map-backed memo and an
// ambiguous 25-token expression can pin a fuzz worker for seconds. Compare
// acceptance up to maxAcceptTokens and forest counts only up to
// maxCountTokens.
const (
	maxAcceptTokens = 48
	maxCountTokens  = 16
)

// lexOracle tokenizes src for l. ok is false when src does not lex cleanly
// (unmatched characters or tokens outside the grammar's terminal set) —
// those inputs exercise the lexer, not the parsers.
func lexOracle(l *langs.Language, src string) (syms []grammar.Sym, in []iglr.TerminalInput, ok bool) {
	for _, tok := range l.Spec.Scan(src) {
		if tok.Skip {
			continue
		}
		if tok.Type == lexer.ErrorType {
			return nil, nil, false
		}
		lexeme := tok.Lexeme(src)
		s := l.Map(int(tok.Type), lexeme)
		if s == grammar.ErrorSym {
			return nil, nil, false
		}
		syms = append(syms, s)
		in = append(in, iglr.TerminalInput{Sym: s, Text: lexeme})
	}
	return syms, in, len(syms) <= maxAcceptTokens
}

// FuzzParseOracle cross-checks the IGLR parser against the Earley oracle on
// fuzzed program text: both must agree on acceptance, and on accepted
// inputs the GLR forest's parse count must equal Earley's span-DP count.
// This is the correctness guard for the memory-layout refactor (arena node
// identity, dense tables, reused GSS structures): any divergence in the
// built forest shows up as a count mismatch.
func FuzzParseOracle(f *testing.F) {
	seeds := []struct {
		lang byte
		src  string
	}{
		{0, "a+b*c"},
		{0, "1+(2*3)/x-y"},
		{0, "((a))"},
		{0, "a+b+c+d+e"},
		{0, "a+*b"},
		{0, ")("},
		{1, "int x;"},
		{1, "typedef int T; T y;"},
		{1, "T * y;"},
		{1, "int f(int a, int b) { return a + b; }"},
		{1, "x = (y + 1);"},
		{1, "{ ; }"},
	}
	for _, s := range seeds {
		f.Add(s.lang, s.src)
	}

	exprLang := expr.AmbiguousLang()
	csubLang := csub.Lang()
	exprOracle := earley.New(exprLang.Grammar)
	csubOracle := earley.New(csubLang.Grammar)
	exprGLR := iglr.New(exprLang.Table)
	csubGLR := iglr.New(csubLang.Table)

	f.Fuzz(func(t *testing.T, lang byte, src string) {
		l, e, p := exprLang, exprOracle, exprGLR
		if lang%2 == 1 {
			l, e, p = csubLang, csubOracle, csubGLR
		}
		syms, in, ok := lexOracle(l, src)
		if !ok {
			return
		}
		wantAccept := e.Recognize(syms)
		root, err := p.ParseTerminals(in)
		if gotAccept := err == nil; gotAccept != wantAccept {
			t.Fatalf("%s %q: earley accept=%v, iglr err=%v", l.Name, src, wantAccept, err)
		}
		if !wantAccept || len(syms) > maxCountTokens {
			return
		}
		wantCount := e.CountParses(syms)
		gotCount := iglr.CountParses(root)
		if wantCount >= earley.Cap || gotCount >= iglr.Cap {
			return // both saturated their caps; exact comparison undefined
		}
		if wantCount != gotCount {
			t.Fatalf("%s %q: earley count %d, iglr count %d", l.Name, src, wantCount, gotCount)
		}
	})
}
