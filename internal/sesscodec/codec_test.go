package sesscodec_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"strings"
	"testing"

	incremental "iglr"
	"iglr/internal/dag"
	"iglr/internal/langs"
	"iglr/internal/langs/csub"
	"iglr/internal/langs/expr"
	"iglr/internal/langs/mod2sub"
	"iglr/internal/sesscodec"
)

// artifact builds a .ccsess via the public Session API: parse src, apply
// the edits (reparsing unless pending is set, which leaves them pending),
// snapshot with tag.
func artifact(t *testing.T, lang *incremental.Language, src string, edits [][3]string, pending bool, tolerant bool, tag uint64) []byte {
	t.Helper()
	s := incremental.NewSession(lang, src)
	var opts []incremental.ParseOption
	if tolerant {
		opts = append(opts, incremental.Tolerant())
	}
	if out := s.Do(nil, opts...); out.Err != nil {
		t.Fatalf("seed parse: %v", out.Err)
	}
	for _, e := range edits {
		off := strings.Index(s.Text(), e[0])
		if off < 0 {
			t.Fatalf("edit anchor %q not in text", e[0])
		}
		s.Edit(off, len(e[1]), e[2])
		if !pending {
			s.Do(nil, opts...)
		}
	}
	var buf bytes.Buffer
	if err := s.SnapshotTagged(&buf, tag); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

// reencode re-serializes a restored document, which must reproduce the
// artifact it was decoded from — the codec has one canonical encoding per
// session state.
func reencode(t *testing.T, res *sesscodec.Restored, def *langs.Language) []byte {
	t.Helper()
	text, toks, pending, err := res.Doc.CommittedState()
	if err != nil {
		t.Fatalf("committed state: %v", err)
	}
	data, err := sesscodec.Encode(sesscodec.State{
		Lang: def, Text: text, Toks: toks, Root: res.Doc.Root(),
		Pending: pending, Det: res.Det, Tag: res.Tag,
	})
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	return data
}

func exprPub() (*incremental.Language, *langs.Language) {
	return incremental.ExprLanguage(), expr.Lang()
}

func TestRoundTripCanonical(t *testing.T) {
	cases := []struct {
		name     string
		pub      *incremental.Language
		def      *langs.Language
		src      string
		edits    [][3]string
		pending  bool
		tolerant bool
	}{
		{name: "expr-clean", src: "a + b * (c - 42) / d"},
		{name: "expr-edited", src: "a + b * c", edits: [][3]string{{"b", "b", "bb"}, {"c", "c", "(c - 42)"}}},
		{name: "expr-pending", src: "a + b * c", edits: [][3]string{{"b", "b", "zz"}}, pending: true},
		{
			name: "csub-error-nodes", pub: incremental.CSubset(), def: csub.Lang(),
			src:      "typedef int T; T x; x = f(x, 1) + 2; return x + 1;",
			edits:    [][3]string{{"x = f", "", "@#! "}},
			tolerant: true,
		},
		{
			name: "mod2-det", pub: incremental.Modula2Subset(), def: mod2sub.Lang(),
			src: "MODULE M; VAR x: INTEGER; BEGIN x := 1 END M.",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.pub == nil {
				tc.pub, tc.def = exprPub()
			}
			data := artifact(t, tc.pub, tc.src, tc.edits, tc.pending, tc.tolerant, 7)
			res, err := sesscodec.Decode(data, tc.def)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if res.Tag != 7 {
				t.Fatalf("tag: got %d", res.Tag)
			}
			if got := reencode(t, res, tc.def); !bytes.Equal(got, data) {
				t.Fatalf("not canonical: re-encode %d bytes vs original %d", len(got), len(data))
			}
		})
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	pub, def := exprPub()
	data := artifact(t, pub, "a + b * (c - 42) / d", nil, false, false, 0)
	for n := 0; n < len(data); n += 1 + len(data)/31 {
		if _, err := sesscodec.Decode(data[:n], def); !errors.Is(err, sesscodec.ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: want ErrCorrupt, got %v", n, err)
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	pub, def := exprPub()
	data := artifact(t, pub, "a + b * c", nil, false, false, 0)
	for _, pos := range []int{0, 4, len(data) / 3, len(data) / 2, len(data) - 1} {
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= 0x40
		if _, err := sesscodec.Decode(flipped, def); err == nil {
			t.Fatalf("bit flip at %d accepted", pos)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	pub, def := exprPub()
	data := artifact(t, pub, "a + b", nil, false, false, 0)
	if _, err := sesscodec.Decode(append(append([]byte(nil), data...), 0xEE), def); !errors.Is(err, sesscodec.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for trailing garbage, got %v", err)
	}
}

// resign recomputes the checksum trailer after a deliberate body mutation,
// so the decoder's structural validation — not the checksum — must catch it.
func resign(data []byte) []byte {
	body := append([]byte(nil), data[:len(data)-sha256.Size]...)
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	pub, def := exprPub()
	data := artifact(t, pub, "a + b", nil, false, false, 0)
	skewed := append([]byte(nil), data...)
	skewed[len(sesscodec.Magic)] = sesscodec.FormatVersion + 1 // single-byte uvarint
	if _, err := sesscodec.Decode(resign(skewed), def); !errors.Is(err, sesscodec.ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

// TestDecodeRejectsV1Snapshot: version 1 stored left-recursive sequence
// chains, which the balanced-sequence parser would not take for committed
// structure; such a snapshot must fall back to a reparse.
func TestDecodeRejectsV1Snapshot(t *testing.T) {
	pub, def := exprPub()
	data := append([]byte(nil), artifact(t, pub, "a + b", nil, false, false, 0)...)
	data[len(sesscodec.Magic)] = 1 // single-byte uvarint
	if _, err := sesscodec.Decode(resign(data), def); !errors.Is(err, sesscodec.ErrVersion) {
		t.Fatalf("want ErrVersion for a version 1 snapshot, got %v", err)
	}
}

func TestDecodeRejectsForeignLanguage(t *testing.T) {
	pub, _ := exprPub()
	data := artifact(t, pub, "a + b", nil, false, false, 0)
	if _, err := sesscodec.Decode(data, csub.Lang()); !errors.Is(err, sesscodec.ErrLanguageMismatch) {
		t.Fatalf("want ErrLanguageMismatch, got %v", err)
	}
}

// TestDecodeRejectsResignedCorruption: even an artifact with a valid
// checksum must not get a malformed body past the structural validators —
// the daemon treats artifacts as untrusted input.
func TestDecodeRejectsResignedCorruption(t *testing.T) {
	pub, def := exprPub()
	data := artifact(t, pub, "a + b * (c - 42) / d", nil, false, false, 0)
	body := len(data) - sha256.Size
	rejected := 0
	for pos := len(sesscodec.Magic) + 1 + sha256.Size; pos < body; pos++ {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[pos] ^= flip
			res, err := sesscodec.Decode(resign(mut), def)
			if err != nil {
				rejected++
				continue
			}
			// A mutation the decoder accepts must still restore a
			// structurally coherent document (never a panic, never an
			// inconsistent tree): re-encoding it must succeed.
			reencode(t, res, def)
		}
	}
	if rejected == 0 {
		t.Fatal("no resigned mutation was rejected — validators are not running")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	recs := []sesscodec.JournalRecord{
		{Seq: 1, Edits: []sesscodec.JournalEdit{{Offset: 0, Remove: 0, Insert: "x"}}},
		{Seq: 2, Edits: []sesscodec.JournalEdit{{Offset: 3, Remove: 2, Insert: ""}, {Offset: 1, Remove: 0, Insert: "yy"}}},
		{Seq: 3, Edits: nil},
	}
	var buf []byte
	for _, r := range recs {
		buf = sesscodec.AppendJournalRecord(buf, r)
	}
	got, torn := sesscodec.DecodeJournal(buf)
	if torn {
		t.Fatal("intact journal reported torn")
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Seq != recs[i].Seq || len(got[i].Edits) != len(recs[i].Edits) {
			t.Fatalf("record %d diverged: %+v vs %+v", i, got[i], recs[i])
		}
		for j := range recs[i].Edits {
			if got[i].Edits[j] != recs[i].Edits[j] {
				t.Fatalf("record %d edit %d diverged", i, j)
			}
		}
	}
}

func TestJournalTornTail(t *testing.T) {
	var buf []byte
	buf = sesscodec.AppendJournalRecord(buf, sesscodec.JournalRecord{Seq: 1, Edits: []sesscodec.JournalEdit{{Insert: "hello"}}})
	whole := len(buf)
	buf = sesscodec.AppendJournalRecord(buf, sesscodec.JournalRecord{Seq: 2, Edits: []sesscodec.JournalEdit{{Insert: "world"}}})
	for cut := whole + 1; cut < len(buf); cut++ {
		recs, torn := sesscodec.DecodeJournal(buf[:cut])
		if !torn {
			t.Fatalf("cut at %d not reported torn", cut)
		}
		if len(recs) != 1 || recs[0].Seq != 1 {
			t.Fatalf("cut at %d lost the intact prefix: %+v", cut, recs)
		}
	}
}

func TestJournalBitFlip(t *testing.T) {
	var buf []byte
	buf = sesscodec.AppendJournalRecord(buf, sesscodec.JournalRecord{Seq: 9, Edits: []sesscodec.JournalEdit{{Offset: 5, Remove: 1, Insert: "zz"}}})
	for pos := range buf {
		mut := append([]byte(nil), buf...)
		mut[pos] ^= 0x10
		recs, torn := sesscodec.DecodeJournal(mut)
		if !torn && len(recs) == 1 {
			r := recs[0]
			if r.Seq != 9 || len(r.Edits) != 1 || r.Edits[0] != (sesscodec.JournalEdit{Offset: 5, Remove: 1, Insert: "zz"}) {
				t.Fatalf("flip at %d silently altered the record: %+v", pos, r)
			}
		}
	}
}

func TestJournalEmpty(t *testing.T) {
	if recs, torn := sesscodec.DecodeJournal(nil); torn || recs != nil {
		t.Fatalf("empty journal: %v %v", recs, torn)
	}
}

// FuzzSessCodecRoundTrip throws arbitrary bytes at the snapshot decoder:
// it must never panic, and anything it accepts must re-encode canonically
// and restore to a coherent document.
func FuzzSessCodecRoundTrip(f *testing.F) {
	exprPubL, exprDef := exprPub()
	tt := &testing.T{}
	f.Add(artifact(tt, exprPubL, "a + b * (c - 42) / d", nil, false, false, 0))
	f.Add(artifact(tt, exprPubL, "a + b * c", [][3]string{{"b", "b", "zz"}}, true, false, 3))
	f.Add(artifact(tt, incremental.CSubset(), "typedef int T; T x; x = f(x, 1) + 2; return x + 1;",
		[][3]string{{"x = f", "", "@#! "}}, false, true, 1))
	if tt.Failed() {
		f.Fatal("seed construction failed")
	}
	defs := []*langs.Language{exprDef, csub.Lang()}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, def := range defs {
			res, err := sesscodec.Decode(data, def)
			if err != nil {
				continue
			}
			// Accepted: the restored document must be coherent enough to
			// re-encode, and the re-encoding must round-trip to the same
			// text, tree, and pending set.
			enc := reencode(t, res, def)
			res2, err := sesscodec.Decode(enc, def)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if res2.Doc.Text() != res.Doc.Text() {
				t.Fatal("re-decode changed text")
			}
			r1, r2 := res.Doc.Root(), res2.Doc.Root()
			if (r1 == nil) != (r2 == nil) {
				t.Fatal("re-decode changed root presence")
			}
			if r1 != nil && dag.Format(def.Grammar, r1) != dag.Format(def.Grammar, r2) {
				t.Fatal("re-decode changed tree")
			}
		}
	})
}

// FuzzJournalDecode: arbitrary bytes must never panic the journal reader,
// and whatever prefix it accepts must re-encode to a byte prefix of a
// re-framed journal.
func FuzzJournalDecode(f *testing.F) {
	var seed []byte
	seed = sesscodec.AppendJournalRecord(seed, sesscodec.JournalRecord{Seq: 1, Edits: []sesscodec.JournalEdit{{Offset: 2, Remove: 1, Insert: "ab"}}})
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _ := sesscodec.DecodeJournal(data)
		var out []byte
		for _, r := range recs {
			out = sesscodec.AppendJournalRecord(out, r)
		}
		if len(out) > len(data) || !bytes.Equal(out, data[:len(out)]) {
			t.Fatal("accepted records do not re-frame to the input prefix")
		}
	})
}
