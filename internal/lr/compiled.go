package lr

import (
	"encoding/binary"
	"fmt"

	"iglr/internal/grammar"
	"iglr/internal/wire"
)

// Compiled-table codec: serializes the dense packed layout directly —
// spill array, packed action cells, goto array, and the precomputed
// nonterminal-reduction cells — so decoding is pure reconstruction with no
// re-packing, no conflict re-resolution, and no FIRST-set traversal. This
// is the one serialized form of a table: compiled language artifacts
// (internal/langcodec) embed it next to the grammar and the lexer.

const compiledMagic = "IGTC"
const compiledVersion = 1

// maxCompiledStates bounds decoded table size against corrupt input.
const maxCompiledStates = 1 << 22

// AppendCompiled serializes the table's dense layout to buf. The grammar is
// NOT included; DecodeCompiled is handed one separately (artifacts carry the
// grammar once, not once per section).
func (t *Table) AppendCompiled(buf []byte) []byte {
	buf = append(buf, compiledMagic...)
	buf = binary.AppendUvarint(buf, compiledVersion)
	buf = append(buf, byte(t.method))
	buf = binary.AppendUvarint(buf, uint64(t.numStates))
	buf = binary.AppendUvarint(buf, uint64(t.nSyms))

	// Spill array, verbatim and in order: offsets below index into it.
	buf = binary.AppendUvarint(buf, uint64(len(t.actSpill)))
	for _, a := range t.actSpill {
		buf = append(buf, byte(a.Kind))
		buf = binary.AppendVarint(buf, int64(a.Target))
	}
	buf = appendPackedCells(buf, t.actCells)
	buf = appendPackedCells(buf, t.ntCells)

	// Gotos: sparse (index, target) pairs in ascending index order.
	occ := 0
	for _, g := range t.gotos {
		if g >= 0 {
			occ++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(occ))
	for idx, g := range t.gotos {
		if g >= 0 {
			buf = binary.AppendUvarint(buf, uint64(idx))
			buf = binary.AppendUvarint(buf, uint64(g))
		}
	}

	// Resolutions (diagnostics only, but part of byte-identity).
	buf = binary.AppendUvarint(buf, uint64(len(t.resolutions)))
	for _, r := range t.resolutions {
		buf = binary.AppendUvarint(buf, uint64(r.State))
		buf = binary.AppendVarint(buf, int64(r.Term))
		buf = append(buf, byte(r.Kept.Kind))
		buf = binary.AppendVarint(buf, int64(r.Kept.Target))
		buf = binary.AppendUvarint(buf, uint64(len(r.Dropped)))
		for _, a := range r.Dropped {
			buf = append(buf, byte(a.Kind))
			buf = binary.AppendVarint(buf, int64(a.Target))
		}
		buf = wire.AppendString(buf, r.Rule)
	}
	return buf
}

// appendPackedCells writes the occupied cells of a packed cell array as
// (index, count, offset) triples; the inline action word is rebuilt from the
// spill array at decode time.
func appendPackedCells(buf []byte, cells []uint64) []byte {
	occ := 0
	for _, c := range cells {
		if c&cellCountMask != 0 {
			occ++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(occ))
	for idx, c := range cells {
		n := c & cellCountMask
		if n == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(idx))
		buf = binary.AppendUvarint(buf, n)
		buf = binary.AppendUvarint(buf, c>>cellOffShift&cellOffMask)
	}
	return buf
}

// DecodeCompiled reconstructs a table serialized by AppendCompiled against
// g, returning the remaining bytes. Conflicts and the per-state conflict
// flags are derived from the decoded cells (count > 1) in the same row-major
// order seal produces, so a decoded table is indistinguishable from a
// freshly built one. Every index, offset, and action target is validated so
// corrupt artifacts fail decoding instead of corrupting a parse.
func DecodeCompiled(g *grammar.Grammar, data []byte) (*Table, []byte, error) {
	r := wire.NewReader(data)
	if string(r.Bytes(4)) != compiledMagic {
		return nil, nil, fmt.Errorf("lr: bad compiled-table magic")
	}
	if v := r.Uvarint(); r.Bad() || v != compiledVersion {
		return nil, nil, fmt.Errorf("lr: unsupported compiled-table version")
	}
	method := Method(r.Byte())
	if method > LR1 {
		return nil, nil, fmt.Errorf("lr: unknown method %d", method)
	}
	// Every state but the first is reached by a shift or a goto, which the
	// table records (kept, or dropped by a filter) in at least two bytes,
	// so the bytes left bound the state count.
	numStates := r.Count()
	nSyms := r.Uvarint()
	if r.Bad() || numStates <= 0 || numStates > maxCompiledStates {
		return nil, nil, fmt.Errorf("lr: invalid state count")
	}
	if nSyms != uint64(g.NumSymbols()) {
		return nil, nil, fmt.Errorf("lr: symbol count mismatch (%d vs %d)", nSyms, g.NumSymbols())
	}

	t := &Table{
		g:             g,
		method:        method,
		numStates:     numStates,
		nSyms:         int(nSyms),
		gotos:         make([]int32, numStates*int(nSyms)),
		conflictState: make([]bool, numStates),
	}
	for i := range t.gotos {
		t.gotos[i] = -1
	}

	nSpill := r.Count()
	if r.Bad() {
		return nil, nil, fmt.Errorf("lr: invalid spill length")
	}
	t.actSpill = make([]Action, nSpill)
	for i := range t.actSpill {
		a := readAction(r)
		if err := validAction(g, numStates, a); err != nil {
			return nil, nil, err
		}
		t.actSpill[i] = a
	}

	var err error
	t.actCells, err = decodePackedCells(r, t, "action")
	if err != nil {
		return nil, nil, err
	}
	t.ntCells, err = decodePackedCells(r, t, "nonterminal")
	if err != nil {
		return nil, nil, err
	}

	occ := r.Count()
	prev := -1
	for i := 0; i < occ; i++ {
		idx := int(r.Uvarint())
		val := r.Uvarint()
		if r.Bad() || idx <= prev || idx >= len(t.gotos) || val >= uint64(numStates) {
			return nil, nil, fmt.Errorf("lr: invalid goto entry")
		}
		t.gotos[idx] = int32(val)
		prev = idx
	}

	nRes := r.Count()
	if r.Bad() {
		return nil, nil, fmt.Errorf("lr: invalid resolution count")
	}
	for i := 0; i < nRes; i++ {
		var res Resolution
		res.State = int(r.Uvarint())
		res.Term = grammar.Sym(r.Varint())
		res.Kept = readAction(r)
		res.Dropped = make([]Action, r.Count())
		for j := range res.Dropped {
			res.Dropped[j] = readAction(r)
		}
		res.Rule = r.Str()
		t.resolutions = append(t.resolutions, res)
	}
	if r.Bad() {
		return nil, nil, fmt.Errorf("lr: truncated compiled table")
	}

	// Derive conflicts and per-state flags, row-major — the order seal uses.
	for state := 0; state < numStates; state++ {
		row := state * t.nSyms
		for sym := 0; sym < t.nSyms; sym++ {
			cell := t.actCells[row+sym]
			if n := cell & cellCountMask; n > 1 {
				off := cell >> cellOffShift & cellOffMask
				t.conflicts = append(t.conflicts, Conflict{
					State: state, Term: grammar.Sym(sym),
					Actions: t.actSpill[off : off+n],
				})
				t.conflictState[state] = true
			}
		}
	}
	return t, r.Rest(), nil
}

func readAction(r *wire.Reader) Action {
	return Action{Kind: Kind(r.Byte()), Target: int32(r.Varint())}
}

// decodePackedCells reads a sparse (index, count, offset) cell section and
// re-packs each cell word, pulling the inline action from the spill array.
func decodePackedCells(r *wire.Reader, t *Table, what string) ([]uint64, error) {
	cells := make([]uint64, t.numStates*t.nSyms)
	occ := r.Count()
	if r.Bad() {
		return nil, fmt.Errorf("lr: invalid %s cell count", what)
	}
	prev := -1
	for i := 0; i < occ; i++ {
		idx := int(r.Uvarint())
		cnt := int(r.Uvarint())
		off := int(r.Uvarint())
		if r.Bad() || idx <= prev || idx >= len(cells) ||
			cnt < 1 || cnt > cellCountMask || off < 0 || off > len(t.actSpill)-cnt {
			return nil, fmt.Errorf("lr: invalid %s cell", what)
		}
		cells[idx] = packCell(off, cnt, t.actSpill[off])
		prev = idx
	}
	return cells, nil
}

func validAction(g *grammar.Grammar, numStates int, a Action) error {
	switch a.Kind {
	case Shift:
		if a.Target < 0 || int(a.Target) >= numStates {
			return fmt.Errorf("lr: shift target out of range")
		}
	case Reduce:
		if a.Target < 0 || int(a.Target) >= g.NumProductions() {
			return fmt.Errorf("lr: reduce target out of range")
		}
	case Accept:
	default:
		return fmt.Errorf("lr: invalid action kind %d", a.Kind)
	}
	return nil
}
