package regex

import (
	"encoding/binary"
	"fmt"

	"iglr/internal/wire"
)

// Binary serialization of minimized DFAs for compiled language artifacts.
// The wire format ships the equivalence-class-compressed form: the accept
// vector, the 256-entry class map, the dense state×class transition table,
// and only the sparse edges above the Latin-1 prefix. Decoding therefore
// reconstructs a ready-to-scan DFA without re-running regex parsing, subset
// construction, or minimization.

const dfaMagic = "IGDF"
const dfaVersion = 1

// maxDFAStates bounds decoded automaton size; the largest bundled language
// is two orders of magnitude below this.
const maxDFAStates = 1 << 20

// AppendBinary serializes d to buf.
func (d *DFA) AppendBinary(buf []byte) []byte {
	buf = append(buf, dfaMagic...)
	buf = binary.AppendUvarint(buf, dfaVersion)
	n := d.NumStates()
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, a := range d.accept {
		buf = binary.AppendVarint(buf, int64(a))
	}
	buf = binary.AppendUvarint(buf, uint64(d.numClasses))
	buf = append(buf, d.classes[:]...)
	for _, t := range d.dense {
		buf = binary.AppendVarint(buf, int64(t))
	}
	// Sparse edges above the dense prefix, clamped to [256, …]. Clamping is
	// idempotent, so re-encoding a decoded DFA is byte-identical.
	for s := 0; s < n; s++ {
		cnt := 0
		for _, e := range d.edges[s] {
			if e.rng.Hi >= 256 {
				cnt++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(cnt))
		for _, e := range d.edges[s] {
			if e.rng.Hi < 256 {
				continue
			}
			lo := e.rng.Lo
			if lo < 256 {
				lo = 256
			}
			buf = binary.AppendUvarint(buf, uint64(lo))
			buf = binary.AppendUvarint(buf, uint64(e.rng.Hi))
			buf = binary.AppendUvarint(buf, uint64(e.to))
		}
	}
	return buf
}

// DecodeDFA reconstructs a DFA serialized by AppendBinary, returning the
// remaining bytes. Every structural invariant (state counts, class ids,
// transition targets, edge ordering) is validated so corrupt input yields
// an error rather than a panic downstream.
func DecodeDFA(data []byte) (*DFA, []byte, error) {
	r := wire.NewReader(data)
	if string(r.Bytes(4)) != dfaMagic {
		return nil, nil, fmt.Errorf("regex: bad DFA magic")
	}
	if v := r.Uvarint(); v != dfaVersion {
		return nil, nil, fmt.Errorf("regex: unsupported DFA version %d", v)
	}
	// Each state's accept value takes a byte, so the bytes left bound the
	// state count.
	n := r.Count()
	if r.Bad() || n <= 0 || n > maxDFAStates {
		return nil, nil, fmt.Errorf("regex: invalid DFA state count %d", n)
	}
	d := &DFA{accept: make([]int, n)}
	for i := range d.accept {
		a := int(r.Varint())
		if a < -1 {
			return nil, nil, fmt.Errorf("regex: invalid accept value %d", a)
		}
		d.accept[i] = a
	}
	k := int(r.Uvarint())
	if r.Bad() || k <= 0 || k > 256 {
		return nil, nil, fmt.Errorf("regex: invalid class count %d", k)
	}
	d.numClasses = k
	copy(d.classes[:], r.Bytes(256))
	for _, c := range d.classes {
		if int(c) >= k {
			return nil, nil, fmt.Errorf("regex: class id %d out of range", c)
		}
	}
	d.dense = make([]int32, n*k)
	for i := range d.dense {
		t := r.Varint()
		if t < Dead || t >= int64(n) {
			return nil, nil, fmt.Errorf("regex: dense target %d out of range", t)
		}
		d.dense[i] = int32(t)
	}
	d.edges = make([][]dfaEdge, n)
	for s := 0; s < n; s++ {
		cnt := r.Count()
		if r.Bad() {
			return nil, nil, fmt.Errorf("regex: invalid edge count")
		}
		if cnt == 0 {
			continue
		}
		edges := make([]dfaEdge, cnt)
		prev := rune(255)
		for i := range edges {
			lo := r.Uvarint()
			hi := r.Uvarint()
			to := r.Uvarint()
			if r.Bad() || lo <= uint64(prev) || hi < lo || hi > maxRune || to >= uint64(n) {
				return nil, nil, fmt.Errorf("regex: invalid edge")
			}
			edges[i] = dfaEdge{rng: RuneRange{rune(lo), rune(hi)}, to: int32(to)}
			prev = rune(hi)
		}
		d.edges[s] = edges
	}
	if r.Bad() {
		return nil, nil, fmt.Errorf("regex: truncated DFA")
	}
	d.computeClosed()
	return d, r.Rest(), nil
}
