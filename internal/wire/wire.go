// Package wire is the one reader behind every compiled-artifact decoder
// (grammar, LR table, lexer DFA and rules, .cclang and .ccsess files, and
// the session journal). Artifacts are untrusted input: a file in a
// deployment's language directory or a daemon's persistence directory may
// be truncated, bit-flipped or crafted, so no read may panic and no count
// read from the file may exceed the bytes that remain.
package wire

import "encoding/binary"

// Reader is a bounds-checked cursor over an artifact payload. The first
// read that runs past the end, meets a malformed varint, or reads a count
// larger than the bytes left latches a sticky failure: every later read
// returns a zero value, so a decoder checks Bad once per section instead of
// after every field.
type Reader struct {
	data []byte
	bad  bool
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Fail latches the failure, as a decoder does for a value it rejects.
func (r *Reader) Fail() {
	r.bad = true
	r.data = nil
}

// Bad reports whether any read so far failed.
func (r *Reader) Bad() bool { return r.bad }

// Rest returns the unread bytes (nil after a failure).
func (r *Reader) Rest() []byte { return r.data }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Count reads a uvarint bounded by the bytes left: a safe allocation
// bound for any sequence whose elements take at least one byte each,
// which defeats length-bomb inputs.
func (r *Reader) Count() int {
	v := r.Uvarint()
	if v > uint64(len(r.data)) {
		r.Fail()
		return 0
	}
	return int(v)
}

// Bytes reads the next n bytes. The result aliases the payload.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > len(r.data) {
		r.Fail()
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.data) == 0 {
		r.Fail()
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// Str reads a string written by AppendString.
func (r *Reader) Str() string { return string(r.Bytes(r.Count())) }

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}
