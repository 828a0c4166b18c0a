// Package langcodec serializes compiled languages as versioned, content-
// hashed binary artifacts (.cclang files). An artifact carries everything a
// process needs to parse — the grammar with its precomputed analyses, the
// packed dense LR tables, the minimized equivalence-class-compressed lexer
// DFA, and the token→terminal mapping — so decoding reconstructs a ready-
// to-parse Language without LR construction or subset construction.
//
// Layout:
//
//	magic "CCLG" | uvarint format version | 32-byte definition hash |
//	payload (name, grammar, compiled table, lexer spec, token map) |
//	32-byte SHA-256 checksum over every preceding byte
//
// The definition hash (langs.HashDef) names the source definition an
// artifact was compiled from, and session snapshots bind to it; the format
// version rejects artifacts written by an incompatible codec; the trailing
// checksum rejects truncated or bit-flipped files before any section
// decoder runs.
package langcodec

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"iglr/internal/grammar"
	"iglr/internal/langs"
	"iglr/internal/lexer"
	"iglr/internal/lr"
	"iglr/internal/wire"
)

// Magic identifies compiled language artifact files.
const Magic = "CCLG"

// FormatVersion is bumped whenever any embedded section format changes;
// older artifacts are then refused with ErrVersion.
const FormatVersion = 1

// FileExt is the conventional artifact file extension.
const FileExt = ".cclang"

// Sentinel decode failures, distinguished so tools (langc verify) can
// report why an artifact was refused.
var (
	// ErrCorrupt reports a truncated, bit-flipped, or non-artifact file.
	ErrCorrupt = errors.New("langcodec: corrupt artifact")
	// ErrVersion reports an artifact written by an incompatible format
	// version.
	ErrVersion = errors.New("langcodec: artifact format version mismatch")
)

// Encode serializes l as a compiled language artifact.
func Encode(l *langs.Language) []byte {
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, Magic...)
	buf = binary.AppendUvarint(buf, FormatVersion)
	buf = append(buf, l.Hash[:]...)

	buf = wire.AppendString(buf, l.Name)
	buf = l.Grammar.AppendBinary(buf)
	buf = l.Table.AppendCompiled(buf)
	buf = l.Spec.AppendBinary(buf)
	buf = appendTokenMap(buf, l.Tokens)

	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

func appendTokenMap(buf []byte, tm langs.TokenMap) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(tm.RuleSyms)))
	for _, s := range tm.RuleSyms {
		buf = binary.AppendVarint(buf, int64(s))
	}
	keys := make([]string, 0, len(tm.Keywords))
	for k := range tm.Keywords {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = wire.AppendString(buf, k)
		buf = binary.AppendVarint(buf, int64(tm.Keywords[k]))
	}
	return binary.AppendVarint(buf, int64(tm.IdentRule))
}

// Decode reconstructs a Language from an artifact produced by Encode. The
// checksum is verified before anything else, so no section decoder ever
// sees corrupted bytes; a version mismatch is reported as ErrVersion after
// the checksum proves the file intact. Behind the checksum every section
// decoder still bounds its counts and range-checks its indices, so a
// resealed or crafted artifact is an error, never a panic.
func Decode(data []byte) (*langs.Language, error) {
	if len(data) < len(Magic)+sha256.Size+1 {
		return nil, ErrCorrupt
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(trailer) {
		return nil, ErrCorrupt
	}
	if string(body[:len(Magic)]) != Magic {
		return nil, ErrCorrupt
	}
	r := wire.NewReader(body[len(Magic):])
	if v := r.Uvarint(); r.Bad() {
		return nil, ErrCorrupt
	} else if v != FormatVersion {
		return nil, ErrVersion
	}
	var hash [32]byte
	copy(hash[:], r.Bytes(sha256.Size))
	name := r.Str()
	if r.Bad() {
		return nil, fmt.Errorf("%w: bad name", ErrCorrupt)
	}

	g, rest, err := grammar.DecodeBinary(r.Rest())
	if err != nil {
		return nil, fmt.Errorf("%w: grammar: %v", ErrCorrupt, err)
	}
	tbl, rest, err := lr.DecodeCompiled(g, rest)
	if err != nil {
		return nil, fmt.Errorf("%w: table: %v", ErrCorrupt, err)
	}
	spec, rest, err := lexer.DecodeSpec(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: lexer: %v", ErrCorrupt, err)
	}
	r = wire.NewReader(rest)
	tm, err := decodeTokenMap(r, g, spec)
	if err != nil {
		return nil, err
	}
	if n := len(r.Rest()); n != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, n)
	}
	return &langs.Language{
		Name:    name,
		Grammar: g,
		Spec:    spec,
		Table:   tbl,
		Map:     tm.Mapper(),
		Tokens:  tm,
		Hash:    hash,
	}, nil
}

func decodeTokenMap(r *wire.Reader, g *grammar.Grammar, spec *lexer.Spec) (langs.TokenMap, error) {
	var tm langs.TokenMap
	fail := func(what string) (langs.TokenMap, error) {
		return tm, fmt.Errorf("%w: token map: %s", ErrCorrupt, what)
	}
	if n := r.Uvarint(); r.Bad() || n != uint64(spec.NumRules()) {
		return fail("rule count mismatch")
	}
	tm.RuleSyms = make([]grammar.Sym, spec.NumRules())
	for i := range tm.RuleSyms {
		s := r.Varint()
		if r.Bad() || !validMapSym(g, s) {
			return fail("rule symbol out of range")
		}
		tm.RuleSyms[i] = grammar.Sym(s)
	}
	nKw := r.Count()
	if r.Bad() {
		return fail("keyword count")
	}
	tm.Keywords = make(map[string]grammar.Sym, nKw)
	for i := 0; i < nKw; i++ {
		k := r.Str()
		s := r.Varint()
		if r.Bad() || s == int64(grammar.InvalidSym) || !validMapSym(g, s) {
			return fail("keyword out of range")
		}
		tm.Keywords[k] = grammar.Sym(s)
	}
	v := r.Varint()
	if r.Bad() || v < -1 || v >= int64(spec.NumRules()) {
		return fail("ident rule out of range")
	}
	tm.IdentRule = int(v)
	return tm, nil
}

// validMapSym accepts InvalidSym (an unmapped rule) or any symbol of g.
func validMapSym(g *grammar.Grammar, s int64) bool {
	return s == int64(grammar.InvalidSym) || (s >= 0 && s < int64(g.NumSymbols()))
}
