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
	return sessionArtifact(t, buildSession(t, lang, src, edits, pending, tolerant), tag)
}

// buildSession parses src, then applies the edits as artifact describes.
func buildSession(t *testing.T, lang *incremental.Language, src string, edits [][3]string, pending bool, tolerant bool) *incremental.Session {
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
	return s
}

// sessionArtifact snapshots s with tag.
func sessionArtifact(t *testing.T, s *incremental.Session, tag uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SnapshotTagged(&buf, tag); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

// reencode re-serializes a decoded state, which must reproduce the
// artifact it was decoded from — the codec has one canonical encoding per
// session state.
func reencode(st *sesscodec.State, def *langs.Language) []byte {
	st.Lang = def
	return sesscodec.Encode(*st)
}

// checkAccepted holds an artifact the decoder accepted to the codec's
// contract: it re-encodes to the same bytes, and restoring it never
// panics; a restored session — a diverged restore's too — snapshots to an
// artifact that restores the same text and tree again.
func checkAccepted(t *testing.T, data []byte, st *sesscodec.State, pub *incremental.Language, def *langs.Language) {
	t.Helper()
	if got := reencode(st, def); !bytes.Equal(got, data) {
		t.Fatalf("not canonical: re-encode %d bytes vs original %d", len(got), len(data))
	}
	s, tag, err := incremental.RestoreSessionTagged(bytes.NewReader(data), pub)
	if err != nil && !errors.Is(err, incremental.ErrSnapshotDiverged) {
		return
	}
	again, _, err := incremental.RestoreSessionTagged(bytes.NewReader(sessionArtifact(t, s, tag)), pub)
	if err != nil {
		t.Fatalf("restoring a restored session's snapshot failed: %v", err)
	}
	if again.Text() != s.Text() {
		t.Fatal("re-restore changed text")
	}
	r1, r2 := s.Tree(), again.Tree()
	if (r1 == nil) != (r2 == nil) {
		t.Fatal("re-restore changed root presence")
	}
	if r1 != nil && dag.Format(def.Grammar, r1) != dag.Format(def.Grammar, r2) {
		t.Fatal("re-restore changed tree")
	}
}

func exprPub() (*incremental.Language, *langs.Language) {
	return incremental.ExprLanguage(), expr.Lang()
}

// TestRoundTripCanonical: a snapshot decodes to a state that re-encodes
// to the same bytes, and a session restored from it snapshots to the same
// bytes again.
func TestRoundTripCanonical(t *testing.T) {
	cases := []struct {
		name     string
		pub      *incremental.Language
		def      *langs.Language
		src      string
		edits    [][3]string
		pending  bool
		tolerant bool
		resolve  bool
		regions  int
		choices  int
	}{
		{name: "expr-clean", src: "a + b * (c - 42) / d"},
		{name: "expr-edited", src: "a + b * c", edits: [][3]string{{"b", "b", "bb"}, {"c", "c", "(c - 42)"}}},
		{name: "expr-pending", src: "a + b * c", edits: [][3]string{{"b", "b", "zz"}}, pending: true},
		{
			name: "csub-error-nodes", pub: incremental.CSubset(), def: csub.Lang(),
			src:      "typedef int T; T x; x = f(x, 1) + 2; return x + 1;",
			edits:    [][3]string{{"x = f", "", "@#! "}},
			tolerant: true, regions: 1,
		},
		{
			name: "mod2-det", pub: incremental.Modula2Subset(), def: mod2sub.Lang(),
			src: "MODULE M; VAR x: INTEGER; BEGIN x := 1 END M.",
		},
		{
			name: "csub-resolved", pub: incremental.CSubset(), def: csub.Lang(),
			src:     "typedef int T; T(x); int y; y(z);",
			resolve: true, choices: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.pub == nil {
				tc.pub, tc.def = exprPub()
			}
			s := buildSession(t, tc.pub, tc.src, tc.edits, tc.pending, tc.tolerant)
			if tc.resolve {
				s.Resolve()
			}
			data := sessionArtifact(t, s, 7)
			st, err := sesscodec.Decode(data, tc.def)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if st.Tag != 7 || len(st.Regions) != tc.regions || len(st.Choices) != tc.choices {
				t.Fatalf("decoded tag %d, %d region(s), %d choice(s); want 7, %d, %d",
					st.Tag, len(st.Regions), len(st.Choices), tc.regions, tc.choices)
			}
			if got := reencode(st, tc.def); !bytes.Equal(got, data) {
				t.Fatalf("not canonical: re-encode %d bytes vs original %d", len(got), len(data))
			}
			twin, tag, err := incremental.RestoreSessionTagged(bytes.NewReader(data), tc.pub)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got := sessionArtifact(t, twin, tag); !bytes.Equal(got, data) {
				t.Fatalf("restored session snapshots to %d bytes, not the %d it was restored from", len(got), len(data))
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

// TestDecodeRejectsV1Snapshot: a snapshot of an older format version falls
// back to a reparse, refused with ErrVersion by Decode and with
// ErrSnapshotVersion by RestoreSession. Version 1 stored left-recursive
// sequence chains, which the balanced-sequence parser would not take for
// committed structure; version 2 stored the token stream and the whole
// node table instead of the text and its history residue.
func TestDecodeRejectsV1Snapshot(t *testing.T) {
	pub, def := exprPub()
	for _, version := range []byte{1, 2} {
		data := append([]byte(nil), artifact(t, pub, "a + b", nil, false, false, 0)...)
		data[len(sesscodec.Magic)] = version // single-byte uvarint
		if _, err := sesscodec.Decode(resign(data), def); !errors.Is(err, sesscodec.ErrVersion) {
			t.Fatalf("want ErrVersion for a version %d snapshot, got %v", version, err)
		}
		if _, err := incremental.RestoreSession(bytes.NewReader(resign(data)), pub); !errors.Is(err, incremental.ErrSnapshotVersion) {
			t.Fatalf("want ErrSnapshotVersion from RestoreSession for version %d, got %v", version, err)
		}
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
	pub, def := incremental.CSubset(), csub.Lang()
	data := artifact(t, pub, "typedef int T; T x; x = f(x, 1) + 2; return x + 1;",
		[][3]string{{"x = f", "", "@#! "}}, false, true, 0)
	body := len(data) - sha256.Size
	rejected := 0
	for pos := len(sesscodec.Magic) + 1 + sha256.Size; pos < body; pos++ {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[pos] ^= flip
			mut = resign(mut)
			st, err := sesscodec.Decode(mut, def)
			if err != nil {
				rejected++
				continue
			}
			// A mutation the decoder accepts must still be canonical and
			// restore coherently (never a panic, never an inconsistent
			// tree).
			checkAccepted(t, mut, st, pub, def)
		}
	}
	if rejected == 0 {
		t.Fatal("no resigned mutation was rejected — validators are not running")
	}
}

// TestDecodeRejectsUnknownFlag: a resealed snapshot whose header sets flag
// bit 1, which no encoder writes, is refused like any unknown bit.
func TestDecodeRejectsUnknownFlag(t *testing.T) {
	pub, def := exprPub()
	data := append([]byte(nil), artifact(t, pub, "a + b", nil, false, false, 0)...)
	// magic | version (1 byte) | language hash | tag 0 (1 byte) | flags
	flags := len(sesscodec.Magic) + 1 + sha256.Size + 1
	if data[flags] != 1 {
		t.Fatalf("flags byte = %#x, want only the has-root bit", data[flags])
	}
	data[flags] |= 1 << 1
	if _, err := sesscodec.Decode(resign(data), def); !errors.Is(err, sesscodec.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for flag bit 1, got %v", err)
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
// and restore to a coherent session (checkAccepted).
func FuzzSessCodecRoundTrip(f *testing.F) {
	exprPubL, exprDef := exprPub()
	tt := &testing.T{}
	f.Add(artifact(tt, exprPubL, "a + b * (c - 42) / d", nil, false, false, 0))
	f.Add(artifact(tt, exprPubL, "a + b * c", [][3]string{{"b", "b", "zz"}}, true, false, 3))
	f.Add(artifact(tt, incremental.CSubset(), "typedef int T; T x; x = f(x, 1) + 2; return x + 1;",
		[][3]string{{"x = f", "", "@#! "}}, false, true, 1))
	resolved := buildSession(tt, incremental.CSubset(), "typedef int T; T(x); int y; y(z);", nil, false, false)
	resolved.Resolve()
	f.Add(sessionArtifact(tt, resolved, 2))
	if tt.Failed() {
		f.Fatal("seed construction failed")
	}
	targets := []struct {
		pub *incremental.Language
		def *langs.Language
	}{{exprPubL, exprDef}, {incremental.CSubset(), csub.Lang()}}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, l := range targets {
			st, err := sesscodec.Decode(data, l.def)
			if err != nil {
				continue
			}
			checkAccepted(t, data, st, l.pub, l.def)
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
