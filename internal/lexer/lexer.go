// Package lexer provides batch and incremental lexing driven by
// regex-compiled DFA token specifications. Each token records how far past
// its own end the recognizer looked (its lexical lookahead); the incremental
// lexer uses this to invalidate exactly the tokens whose recognition
// examined an edited character, as required by the parse-dag invalidation
// step of Wagner & Graham's incremental parser (Appendix A,
// process_modifications_to_parse_dag).
package lexer

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"iglr/internal/regex"
)

// ErrorType is the token type assigned to characters no rule matches.
const ErrorType = -1

// Rule defines one token kind. Earlier rules win ties (lex convention);
// longest match wins overall. Skip rules (whitespace, comments) produce no
// tokens but still participate in lookahead accounting.
type Rule struct {
	Name    string
	Pattern string
	Skip    bool
}

// Spec is a compiled lexical specification.
type Spec struct {
	rules []Rule
	dfa   *regex.DFA
}

// NewSpec compiles the rule set.
func NewSpec(rules []Rule) (*Spec, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("lexer: empty rule set")
	}
	pats := make([]string, len(rules))
	for i, r := range rules {
		pats[i] = r.Pattern
	}
	dfa, err := regex.CompileSet(pats)
	if err != nil {
		return nil, err
	}
	if dfa.Accept(dfa.Start()) >= 0 {
		return nil, fmt.Errorf("lexer: a rule matches the empty string")
	}
	return &Spec{rules: append([]Rule(nil), rules...), dfa: dfa}, nil
}

// MustSpec is NewSpec but panics on error.
func MustSpec(rules []Rule) *Spec {
	s, err := NewSpec(rules)
	if err != nil {
		panic(err)
	}
	return s
}

// NumRules returns the number of rules.
func (s *Spec) NumRules() int { return len(s.rules) }

// NumStates returns the number of states in the combined token DFA.
func (s *Spec) NumStates() int { return s.dfa.NumStates() }

// NumClasses returns the number of byte equivalence classes in the DFA's
// dense transition table.
func (s *Spec) NumClasses() int { return s.dfa.NumClasses() }

// Rule returns rule i.
func (s *Spec) Rule(i int) Rule { return s.rules[i] }

// RuleIndex returns the index of the rule with the given name, or -1.
func (s *Spec) RuleIndex(name string) int {
	for i, r := range s.rules {
		if r.Name == name {
			return i
		}
	}
	return -1
}

// Token is one lexeme.
type Token struct {
	// Type is the rule index, or ErrorType for unmatched characters.
	Type int
	// Offset is the byte offset of the token in the current text.
	Offset int
	// Text is the lexeme.
	Text string
	// Lookahead is the number of bytes beyond the end of Text that the
	// recognizer examined while deciding this token (≥0).
	Lookahead int
	// Skip marks tokens from skip rules; they are retained in the stream
	// for exact incremental accounting but hidden from the parser.
	Skip bool
	// Open marks a token whose recognition stopped at end of input in a
	// DFA state that still has outgoing transitions: had more text
	// existed, the recognizer would have examined it, so the token's
	// lookahead window is open-ended at EOF. Tokens that stopped in a
	// dead or transition-free state are closed — no append can change
	// them — which is what lets Damage skip them entirely.
	Open bool
}

// End returns the byte offset one past the token text.
func (t Token) End() int { return t.Offset + len(t.Text) }

// scanOne recognizes one token at pos. It returns the matched byte length
// (≥1 even on error), the rule (or ErrorType), the total number of bytes
// examined from pos, and whether recognition stopped at end of input in a
// state that could still advance (the token's window is open at EOF).
//
// The loop is the lexing hot path: ASCII bytes — the overwhelming majority
// in program text — step the DFA through its dense equivalence-class table
// without rune decoding; only multi-byte sequences fall back to
// utf8.DecodeRuneInString and the sparse transition search.
func (s *Spec) scanOne(text string, pos int) (length, rule, examined int, open bool) {
	d := s.dfa
	state := d.Start()
	best, bestRule := -1, ErrorType
	i := pos
	for i < len(text) {
		var sz, next int
		if c := text[i]; c < utf8.RuneSelf {
			sz = 1
			next = d.StepByte(state, c)
		} else {
			var r rune
			r, sz = utf8.DecodeRuneInString(text[i:])
			next = d.Step(state, r)
		}
		if next == regex.Dead {
			examined = i + sz - pos // the killing rune was examined
			if d.Closed(state) {
				// A transition-free state cannot advance on any input, so
				// the recognizer needn't look at the next rune at all; not
				// charging it keeps the token's lookahead identical whether
				// it is followed by more text or by end of input, which is
				// what lets Damage keep such tokens across appends.
				examined = i - pos
			}
			if best < 0 {
				// No rule matched: emit a one-rune error token, but charge
				// it everything the DFA examined (e.g. an unterminated
				// comment opener reads to end of input before failing).
				_, fsz := utf8.DecodeRuneInString(text[pos:])
				return fsz, ErrorType, examined, false
			}
			return best, bestRule, examined, false
		}
		state = next
		i += sz
		if a := d.Accept(state); a >= 0 {
			best, bestRule = i-pos, a
		}
	}
	examined = len(text) - pos
	open = !d.Closed(state)
	if best < 0 {
		_, fsz := utf8.DecodeRuneInString(text[pos:])
		return fsz, ErrorType, examined, open
	}
	return best, bestRule, examined, open
}

// Scan lexes the whole text, returning every token including skip tokens.
func (s *Spec) Scan(text string) []Token {
	return s.ScanInto(text, nil)
}

// Significant filters out skip tokens.
func Significant(toks []Token) []Token {
	out := make([]Token, 0, len(toks))
	for _, t := range toks {
		if !t.Skip && t.Type != ErrorType {
			out = append(out, t)
		}
	}
	return out
}

// Edit describes a single text modification: Removed bytes at Offset were
// replaced by Inserted.
type Edit struct {
	Offset   int
	Removed  int
	Inserted string
}

// Delta returns the signed change in text length.
func (e Edit) Delta() int { return len(e.Inserted) - e.Removed }

// Tokens is the token stream Damage reads: Len tokens, the i-th of them
// by At, carrying its absolute offset in the text.
type Tokens interface {
	Len() int
	At(i int) Token
}

// Damage relexes the token stream for one edit without modifying it. old
// is the stream of the text before the edit, text the text after it, and
// maxLook an upper bound on every old token's Lookahead. The result is the
// damage: old tokens [first, resume) are replaced by fresh, and the new
// stream is old[:first] + fresh + old[resume:] with e.Delta() added to the
// tail's offsets. fresh is buf[:0] with the rescanned tokens appended, and
// its length is the incremental work measure.
//
// text may alias mutable storage, such as a buffer's in-place view: the
// fresh lexemes are copied out of it, so no returned token refers to text.
func (s *Spec) Damage(old Tokens, text string, e Edit, maxLook int, buf []Token) (first, resume int, fresh []Token) {
	lo := e.Offset
	oldLen := len(text) - e.Delta()
	n := old.Len()

	// First affected token: the earliest whose examined window reaches the
	// edit. A token whose recognition stopped at end-of-input in a live
	// DFA state (Open) is affected by an append there too — had more text
	// existed, the recognizer would have examined it — so its window is
	// treated as open-ended. A token that stopped in a transition-free
	// state is closed: appends past its window cannot change it.
	//
	// No window extends more than maxLook past its token, so every token
	// ending before lo-maxLook is unaffected: binary-search past those and
	// scan only the last few candidates.
	i, j := 0, n
	for i < j {
		h := int(uint(i+j) >> 1)
		if old.At(h).End()+maxLook < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	first = n
	for ; i < n; i++ {
		t := old.At(i)
		windowEnd := t.End() + t.Lookahead
		if windowEnd > lo || (t.Open && windowEnd >= oldLen) {
			first = i
			break
		}
	}

	pos := 0
	if first > 0 {
		pos = old.At(first - 1).End()
	}
	// Old tokens starting inside the removed region are affected; the
	// candidates for resync start at or after its end.
	hiOld := e.Offset + e.Removed
	resume = first
	for resume < n && old.At(resume).Offset < hiOld {
		resume++
	}

	delta := e.Delta()
	fresh = buf[:0]
	for pos < len(text) {
		// Resync: a fresh token boundary past the inserted text that
		// coincides with an old token boundary lets the old tail stand —
		// recognition from there reads the same characters as before.
		if pos >= lo+len(e.Inserted) {
			oldPos := pos - delta
			for resume < n && old.At(resume).Offset < oldPos {
				resume++
			}
			if resume < n && old.At(resume).Offset == oldPos {
				break
			}
		}
		fresh = append(fresh, s.freshToken(text, pos))
		pos = fresh[len(fresh)-1].End()
	}
	if pos >= len(text) {
		resume = n
	}

	// One copy of the rescanned span backs every fresh lexeme.
	if len(fresh) > 0 {
		start := fresh[0].Offset
		own := strings.Clone(text[start:pos])
		for k := range fresh {
			off := fresh[k].Offset - start
			fresh[k].Text = own[off : off+len(fresh[k].Text)]
		}
	}
	return first, resume, fresh
}

// freshToken scans one token at pos of text.
func (s *Spec) freshToken(text string, pos int) Token {
	length, rule, examined, open := s.scanOne(text, pos)
	tok := Token{
		Type:      rule,
		Offset:    pos,
		Text:      text[pos : pos+length],
		Lookahead: examined - length,
		Open:      open,
	}
	if rule >= 0 {
		tok.Skip = s.rules[rule].Skip
	}
	return tok
}
