package lexer

import (
	"encoding/binary"
	"fmt"

	"iglr/internal/regex"
	"iglr/internal/wire"
)

// Binary serialization of compiled lexical specifications for compiled
// language artifacts: the rule list (names, patterns, skip flags — needed
// for RuleIndex and skip classification) plus the minimized DFA in its
// equivalence-class-compressed form. Decoding reconstructs a ready-to-scan
// Spec without compiling a single regular expression.

const specMagic = "IGLX"
const specVersion = 1

// AppendBinary serializes s to buf.
func (s *Spec) AppendBinary(buf []byte) []byte {
	buf = append(buf, specMagic...)
	buf = binary.AppendUvarint(buf, specVersion)
	buf = binary.AppendUvarint(buf, uint64(len(s.rules)))
	for _, r := range s.rules {
		buf = wire.AppendString(buf, r.Name)
		buf = wire.AppendString(buf, r.Pattern)
		if r.Skip {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return s.dfa.AppendBinary(buf)
}

// DecodeSpec reconstructs a Spec serialized by AppendBinary, returning the
// remaining bytes. The embedded DFA's accept values are validated against
// the rule count so a corrupt artifact cannot index out of range at scan
// time.
func DecodeSpec(data []byte) (*Spec, []byte, error) {
	r := wire.NewReader(data)
	if string(r.Bytes(4)) != specMagic {
		return nil, nil, fmt.Errorf("lexer: bad spec magic")
	}
	if v := r.Uvarint(); r.Bad() || v != specVersion {
		return nil, nil, fmt.Errorf("lexer: unsupported spec version")
	}
	nRules := r.Count()
	if r.Bad() || nRules == 0 {
		return nil, nil, fmt.Errorf("lexer: invalid rule count")
	}
	rules := make([]Rule, nRules)
	for i := range rules {
		rules[i].Name = r.Str()
		rules[i].Pattern = r.Str()
		rules[i].Skip = r.Byte() != 0
	}
	if r.Bad() {
		return nil, nil, fmt.Errorf("lexer: truncated spec")
	}
	dfa, rest, err := regex.DecodeDFA(r.Rest())
	if err != nil {
		return nil, nil, err
	}
	for st := 0; st < dfa.NumStates(); st++ {
		if a := dfa.Accept(st); a >= nRules {
			return nil, nil, fmt.Errorf("lexer: accept rule %d out of range", a)
		}
	}
	if dfa.Accept(dfa.Start()) >= 0 {
		return nil, nil, fmt.Errorf("lexer: a rule matches the empty string")
	}
	return &Spec{rules: rules, dfa: dfa}, rest, nil
}
