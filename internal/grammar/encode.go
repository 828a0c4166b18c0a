package grammar

import (
	"encoding/binary"
	"fmt"

	"iglr/internal/wire"
)

// Binary serialization of grammars, used for compiled language artifacts
// (the paper's Ensemble system compiles language descriptions off-line and
// loads them into the running environment).

const grammarMagic = "IGGR"
const grammarVersion = 1

// AppendBinary serializes g to buf.
func (g *Grammar) AppendBinary(buf []byte) []byte {
	buf = append(buf, grammarMagic...)
	buf = binary.AppendUvarint(buf, grammarVersion)
	buf = binary.AppendUvarint(buf, uint64(len(g.symbols)))
	for _, s := range g.symbols {
		buf = wire.AppendString(buf, s.Name)
		flags := byte(0)
		if s.Terminal {
			flags |= 1
		}
		if s.Generated {
			flags |= 2
		}
		buf = append(buf, flags, byte(s.Assoc))
		buf = binary.AppendUvarint(buf, uint64(s.Prec))
		buf = binary.AppendVarint(buf, int64(s.SeqElem))
	}
	buf = binary.AppendVarint(buf, int64(g.start))
	buf = binary.AppendUvarint(buf, uint64(len(g.prods)))
	for _, p := range g.prods {
		buf = binary.AppendVarint(buf, int64(p.LHS))
		buf = binary.AppendUvarint(buf, uint64(len(p.RHS)))
		for _, s := range p.RHS {
			buf = binary.AppendVarint(buf, int64(s))
		}
		buf = binary.AppendUvarint(buf, uint64(p.Prec))
		flags := byte(p.Assoc)
		if p.Seq {
			flags |= 0x80
		}
		buf = append(buf, flags)
		buf = wire.AppendString(buf, p.Label)
	}
	return buf
}

// DecodeBinary reconstructs a grammar serialized by AppendBinary, returning
// the remaining bytes. Every symbol index (start, left- and right-hand
// sides, sequence elements) is range-checked before the analyses run, so a
// corrupt artifact is an error, never a panic.
func DecodeBinary(data []byte) (*Grammar, []byte, error) {
	r := wire.NewReader(data)
	if string(r.Bytes(4)) != grammarMagic {
		return nil, nil, fmt.Errorf("grammar: bad magic")
	}
	if v := r.Uvarint(); v != grammarVersion {
		return nil, nil, fmt.Errorf("grammar: unsupported version %d", v)
	}
	nSyms := r.Count()
	if r.Bad() || nSyms < NumReserved {
		return nil, nil, fmt.Errorf("grammar: invalid symbol count")
	}
	// sym reads a symbol index, latching the failure if it is out of range.
	sym := func(invalidOK bool) Sym {
		s := r.Varint()
		if (s < 0 || s >= int64(nSyms)) && !(invalidOK && s == int64(InvalidSym)) {
			r.Fail()
		}
		return Sym(s)
	}
	g := &Grammar{
		symbols: make([]Symbol, 0, nSyms),
		byName:  make(map[string]Sym, nSyms),
	}
	for i := 0; i < nSyms; i++ {
		name := r.Str()
		flags := r.Byte()
		assoc := Assoc(r.Byte())
		prec := int(r.Uvarint())
		seqElem := sym(true)
		g.symbols = append(g.symbols, Symbol{
			Name:      name,
			Terminal:  flags&1 != 0,
			Generated: flags&2 != 0,
			Assoc:     assoc,
			Prec:      prec,
			SeqElem:   seqElem,
		})
		g.byName[name] = Sym(i)
		if flags&1 != 0 {
			g.numTerminals++
		}
	}
	g.start = sym(false)
	nProds := r.Count()
	g.prods = make([]*Production, 0, nProds)
	for i := 0; i < nProds; i++ {
		p := &Production{ID: i, precSym: InvalidSym}
		p.LHS = sym(false)
		p.RHS = make([]Sym, r.Count())
		for j := range p.RHS {
			p.RHS[j] = sym(false)
		}
		p.Prec = int(r.Uvarint())
		flags := r.Byte()
		p.Assoc = Assoc(flags &^ 0x80)
		p.Seq = flags&0x80 != 0
		p.Label = r.Str()
		g.prods = append(g.prods, p)
	}
	if r.Bad() {
		return nil, nil, fmt.Errorf("grammar: truncated data or symbol out of range")
	}
	// Rebuild derived state.
	g.prodsByLHS = make([][]*Production, len(g.symbols))
	for _, p := range g.prods {
		g.prodsByLHS[p.LHS] = append(g.prodsByLHS[p.LHS], p)
	}
	g.computeAnalyses()
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	return g, r.Rest(), nil
}
