package langcodec_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"reflect"
	"testing"

	"iglr/internal/dag"
	"iglr/internal/iglr"
	"iglr/internal/langcodec"
	"iglr/internal/langreg"
	"iglr/internal/langs"
	"iglr/internal/lr"
)

var methods = []lr.Method{lr.SLR, lr.LALR, lr.LR1}

// TestRoundTripDifferential is the codec acceptance test: for every bundled
// language under every table-construction method, the decoded artifact must
// re-encode byte-identically (proving the packed tables, lexer DFA, and
// token map survived unchanged) and must parse the sample corpus with
// identical trees and identical parser work counters.
func TestRoundTripDifferential(t *testing.T) {
	for _, e := range langreg.All() {
		for _, m := range methods {
			t.Run(e.Name+"/"+m.String(), func(t *testing.T) {
				b := e.Fresh()
				b.Options.Method = m
				fresh, err := b.Build()
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				enc := langcodec.Encode(fresh)
				dec, err := langcodec.Decode(enc)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if dec.Name != fresh.Name || dec.Hash != fresh.Hash {
					t.Fatalf("identity mismatch: %q/%x vs %q/%x",
						dec.Name, dec.Hash, fresh.Name, fresh.Hash)
				}
				enc2 := langcodec.Encode(dec)
				if !bytes.Equal(enc, enc2) {
					t.Fatalf("re-encoded artifact differs (%d vs %d bytes)", len(enc), len(enc2))
				}
				if got, want := dec.Table.NumStates(), fresh.Table.NumStates(); got != want {
					t.Fatalf("states: %d vs %d", got, want)
				}
				if got, want := dec.Table.Footprint(), fresh.Table.Footprint(); got != want {
					t.Fatalf("footprint: %d vs %d", got, want)
				}
				if len(dec.Table.Conflicts()) != len(fresh.Table.Conflicts()) {
					t.Fatalf("conflicts: %d vs %d",
						len(dec.Table.Conflicts()), len(fresh.Table.Conflicts()))
				}
				for _, src := range e.Samples {
					compareParse(t, fresh, dec, src)
				}
			})
		}
	}
}

// compareParse parses src through both languages and requires identical
// token streams, identical trees (or identical errors), and identical work
// counters.
func compareParse(t *testing.T, fresh, dec *langs.Language, src string) {
	t.Helper()
	ft := fresh.Spec.Scan(src)
	dt := dec.Spec.Scan(src)
	if !reflect.DeepEqual(ft, dt) {
		t.Fatalf("token streams differ for %q:\n%v\nvs\n%v", src, ft, dt)
	}
	fp, dp := iglr.New(fresh.Table), iglr.New(dec.Table)
	fdoc, ddoc := fresh.NewDocument(src), dec.NewDocument(src)
	froot, ferr := fp.Parse(fdoc.Stream())
	droot, derr := dp.Parse(ddoc.Stream())
	if (ferr == nil) != (derr == nil) {
		t.Fatalf("parse error mismatch for %q: %v vs %v", src, ferr, derr)
	}
	if ferr != nil {
		if ferr.Error() != derr.Error() {
			t.Fatalf("error text mismatch for %q: %v vs %v", src, ferr, derr)
		}
		return
	}
	if f, d := dag.Format(fresh.Grammar, froot), dag.Format(dec.Grammar, droot); f != d {
		t.Fatalf("trees differ for %q:\n%s\nvs\n%s", src, f, d)
	}
	if !reflect.DeepEqual(fp.Stats, dp.Stats) {
		t.Fatalf("parser stats differ for %q:\n%+v\nvs\n%+v", src, fp.Stats, dp.Stats)
	}
}

func encodedExpr(t testing.TB) []byte {
	t.Helper()
	e, ok := langreg.Find("expr")
	if !ok {
		t.Fatal("expr not registered")
	}
	l, err := e.Fresh().Build()
	if err != nil {
		t.Fatal(err)
	}
	return langcodec.Encode(l)
}

// reseal recomputes the trailing checksum after a deliberate body mutation,
// so tests reach the validation *behind* the integrity check.
func reseal(data []byte) []byte {
	body := data[:len(data)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(append([]byte(nil), body...), sum[:]...)
}

func TestDecodeRejectsVersionMismatch(t *testing.T) {
	enc := encodedExpr(t)
	// The format version is the single uvarint byte right after the magic.
	bumped := append([]byte(nil), enc...)
	bumped[len(langcodec.Magic)] = langcodec.FormatVersion + 1
	if _, err := langcodec.Decode(bumped); !errors.Is(err, langcodec.ErrCorrupt) {
		t.Fatalf("version bump without resealing must fail the checksum, got %v", err)
	}
	if _, err := langcodec.Decode(reseal(bumped)); !errors.Is(err, langcodec.ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	enc := encodedExpr(t)
	for _, n := range []int{0, 1, len(langcodec.Magic), len(enc) / 2, len(enc) - 1} {
		if _, err := langcodec.Decode(enc[:n]); !errors.Is(err, langcodec.ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: want ErrCorrupt, got %v", n, err)
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	enc := encodedExpr(t)
	for _, pos := range []int{0, len(langcodec.Magic), len(enc) / 3, len(enc) / 2, len(enc) - 1} {
		flipped := append([]byte(nil), enc...)
		flipped[pos] ^= 0x40
		if _, err := langcodec.Decode(flipped); err == nil {
			t.Fatalf("bit flip at %d accepted", pos)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	enc := encodedExpr(t)
	if _, err := langcodec.Decode(append(append([]byte(nil), enc...), 0xEE)); !errors.Is(err, langcodec.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for trailing bytes, got %v", err)
	}
}

// requireFixedPoint checks the contract for an artifact Decode accepted
// behind a valid checksum: the language it yields re-encodes, and that
// encoding decodes and re-encodes to itself. (Byte identity with the
// accepted input is not required: a mutation may, say, duplicate a
// keyword that the encoder then writes once.)
func requireFixedPoint(t *testing.T, l *langs.Language) {
	t.Helper()
	enc := langcodec.Encode(l)
	l2, err := langcodec.Decode(enc)
	if err != nil {
		t.Fatalf("re-encoded accepted artifact does not decode: %v", err)
	}
	if !bytes.Equal(langcodec.Encode(l2), enc) {
		t.Fatal("accepted artifact does not re-encode to a fixed point")
	}
}

// TestDecodeRejectsResealedCorruption: the checksum is not what keeps a
// corrupt artifact out. Every payload byte of two bundled artifacts is
// flipped (XOR 0x01 and 0x80) and the checksum recomputed, so each
// mutation reaches the section decoders; Decode must never panic, must
// reject at least one mutation, and whatever it accepts must re-encode to
// a fixed point.
func TestDecodeRejectsResealedCorruption(t *testing.T) {
	for _, name := range []string{"expr", "c-subset"} {
		e, ok := langreg.Find(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		l, err := e.Fresh().Build()
		if err != nil {
			t.Fatal(err)
		}
		data := langcodec.Encode(l)
		rejected, accepted := 0, 0
		for pos := len(langcodec.Magic) + 1 + sha256.Size; pos < len(data)-sha256.Size; pos++ {
			for _, flip := range []byte{0x01, 0x80} {
				mut := append([]byte(nil), data...)
				mut[pos] ^= flip
				dec, err := langcodec.Decode(reseal(mut))
				if err != nil {
					rejected++
					continue
				}
				accepted++
				requireFixedPoint(t, dec)
			}
		}
		if rejected == 0 {
			t.Fatalf("%s: no resealed mutation was rejected; the validators are not running", name)
		}
		t.Logf("%s: %d resealed mutations rejected, %d accepted", name, rejected, accepted)
	}
}

// FuzzLangCodecRoundTrip throws arbitrary bytes at the decoder (it must
// never panic) and requires that anything it accepts re-encodes to the
// identical artifact — the codec has exactly one representation per
// language.
func FuzzLangCodecRoundTrip(f *testing.F) {
	for _, e := range langreg.All() {
		l, err := e.Fresh().Build()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(langcodec.Encode(l))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := langcodec.Decode(data)
		if err != nil {
			return
		}
		enc := langcodec.Encode(l)
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted artifact is not canonical: %d vs %d bytes", len(enc), len(data))
		}
		l2, err := langcodec.Decode(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if l2.Name != l.Name || l2.Hash != l.Hash {
			t.Fatal("re-decode changed identity")
		}
	})
}

// FuzzLangCodecResealed reseals every input before decoding, so the
// fuzzer's mutations get past the checksum and exercise the section
// decoders: Decode must never panic, and an accepted artifact must
// re-encode to a fixed point.
func FuzzLangCodecResealed(f *testing.F) {
	for _, e := range langreg.All() {
		l, err := e.Fresh().Build()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(langcodec.Encode(l))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < sha256.Size {
			return
		}
		if l, err := langcodec.Decode(reseal(data)); err == nil {
			requireFixedPoint(t, l)
		}
	})
}
