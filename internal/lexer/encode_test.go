package lexer

import (
	"bytes"
	"reflect"
	"testing"
)

// TestSpecCodecRoundTrip: decode(encode(spec)) must lex identically and
// re-encode byte-identically.
func TestSpecCodecRoundTrip(t *testing.T) {
	s := MustSpec(cRules())
	enc := s.AppendBinary(nil)
	s2, rest, err := DecodeSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("decoder left %d bytes", len(rest))
	}
	if !bytes.Equal(s2.AppendBinary(nil), enc) {
		t.Fatal("re-encode is not byte-identical")
	}
	if s2.NumRules() != s.NumRules() {
		t.Fatalf("rule count %d != %d", s2.NumRules(), s.NumRules())
	}
	for i := 0; i < s.NumRules(); i++ {
		if s2.Rule(i) != s.Rule(i) {
			t.Fatalf("rule %d differs: %+v vs %+v", i, s2.Rule(i), s.Rule(i))
		}
	}
	src := `int x = 42; /* note */ if (x == 7) { y = "a\"b"; } @`
	if got, want := s2.Scan(src), s.Scan(src); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded spec scans differently:\n%v\n%v", got, want)
	}
}

// TestSpecCodecRejectsCorruption: truncation and magic damage must error.
func TestSpecCodecRejectsCorruption(t *testing.T) {
	enc := MustSpec(cRules()).AppendBinary(nil)
	for cut := 0; cut < len(enc); cut += 1 + len(enc)/17 {
		if _, _, err := DecodeSpec(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[1] ^= 0xFF
	if _, _, err := DecodeSpec(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestRelexAppendScansOnlyAppendedText pins the pure-append case: when
// every old recognition window is closed before the edit, no old token is
// affected (first == resume == len(old)) and only the appended text is
// scanned.
func TestRelexAppendScansOnlyAppendedText(t *testing.T) {
	s := MustSpec(cRules())
	oldText := "int x = 1;"
	old := s.Scan(oldText)
	newText := oldText + " int y = 2;"
	e := Edit{Offset: len(oldText), Inserted: " int y = 2;"}
	first, resume, fresh := s.Damage(flat(old), newText, e, maxLookahead(old), nil)

	if first != len(old) || resume != len(old) {
		t.Fatalf("damage [%d,%d), want [%d,%d) (whole old stream kept)", first, resume, len(old), len(old))
	}
	if want := len(s.Scan(newText)) - len(old); len(fresh) != want {
		t.Fatalf("scanned %d tokens, want the %d appended ones", len(fresh), want)
	}
	if got, want := splice(old, first, resume, fresh, e.Delta()), s.Scan(newText); !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental result differs from full scan:\n%v\n%v", got, want)
	}
}

// TestRelexAppendMergesOpenToken: appending where the last token's window is
// open at EOF (a number that could grow) must invalidate that token — the
// open token has to be rescanned and merged.
func TestRelexAppendMergesOpenToken(t *testing.T) {
	s := MustSpec(cRules())
	oldText := "x = 1"
	old := s.Scan(oldText)
	if !old[len(old)-1].Open {
		t.Fatalf("precondition: last token %+v should be open at EOF", old[len(old)-1])
	}
	newText := oldText + "2;"
	e := Edit{Offset: len(oldText), Inserted: "2;"}
	first, resume, fresh := s.Damage(flat(old), newText, e, maxLookahead(old), nil)
	if first >= len(old) {
		t.Fatalf("first = %d: open token at EOF must be invalidated by an append", first)
	}
	toks := splice(old, first, resume, fresh, e.Delta())
	if want := s.Scan(newText); !reflect.DeepEqual(toks, want) {
		t.Fatalf("incremental result differs from full scan:\n%v\n%v", toks, want)
	}
	joined := ""
	for _, tok := range toks {
		if tok.Type >= 0 && s.Rule(tok.Type).Name == "NUM" {
			joined = tok.Text
		}
	}
	if joined != "12" {
		t.Fatalf("appended digit did not merge: NUM lexeme %q, want \"12\"", joined)
	}
}
