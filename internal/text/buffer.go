// Package text provides an editable text buffer — a gap buffer with a
// version-stamped edit log — serving as the textual half of the
// self-versioning document model the incremental analyses are built on
// (Wagner & Graham, CompCon 97 [26]).
//
// The buffer is optimized for the two lives a document actually leads.
// Cold (batch) inputs are adopted without copying: NewBuffer aliases the
// source string — possibly an mmap'd file (see MapFile) — and every read
// (String, Slice, Bytes, ByteAt) is served zero-copy from that backing
// until the first edit, which detaches into owned storage (copy-on-write).
// Warm (editing) buffers keep the classic gap representation, plus a
// materialization cache so repeated whole-text reads between edits cost
// one copy, not one per call.
package text

import (
	"fmt"
	"unsafe"
)

// Edit is a single text modification: Removed bytes at Offset were replaced
// by Inserted.
type Edit struct {
	Offset   int
	Removed  int
	Inserted string
}

// Delta is the signed length change of the edit.
func (e Edit) Delta() int { return len(e.Inserted) - e.Removed }

func (e Edit) String() string {
	return fmt.Sprintf("@%d -%d +%q", e.Offset, e.Removed, e.Inserted)
}

// Buffer is a gap buffer over bytes with an edit history. The zero value is
// an empty buffer.
type Buffer struct {
	data    []byte
	gapLo   int // start of the gap
	gapHi   int // end of the gap (exclusive)
	version int
	log     []loggedEdit

	// ro marks adopted, possibly shared backing storage (NewBuffer,
	// NewBufferBytes): data must never be written through; the first Apply
	// detaches into an owned array. An ro buffer always has a zero-width
	// gap at the end, so its text is contiguous by construction.
	ro bool
	// str caches the materialized text: the adopted source string while ro,
	// or the result of the last String() call since the last edit. "" means
	// not cached (or genuinely empty — Len disambiguates).
	str string
}

type loggedEdit struct {
	version int
	edit    Edit
}

// NewBuffer creates a buffer holding s. The string is adopted, not copied:
// until the first edit the buffer reads directly from s's bytes (and
// String returns s itself), so opening a large cold file costs no copy.
// The first Apply detaches the buffer into owned storage, leaving s
// untouched.
func NewBuffer(s string) *Buffer {
	return &Buffer{
		data:  unsafe.Slice(unsafe.StringData(s), len(s)),
		gapLo: len(s),
		gapHi: len(s),
		ro:    true,
		str:   s,
	}
}

// NewBufferBytes creates a buffer over data without copying it. The caller
// promises not to mutate data for the buffer's lifetime (an mmap'd region,
// Mapped.Bytes, satisfies this); the buffer itself never writes through it
// (copy-on-write, as NewBuffer). Close an underlying mapping only after
// the buffer has been edited once or is no longer read.
func NewBufferBytes(data []byte) *Buffer {
	return &Buffer{
		data:  data,
		gapLo: len(data),
		gapHi: len(data),
		ro:    true,
		str:   unsafeString(data),
	}
}

// unsafeString views b as a string without copying. Callers must guarantee
// b is never written while the string is reachable.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Footprint estimates the buffer's resident bytes: the backing array
// (gap included) plus the edit log's entries and their captured insert
// text. Adopted (ro) backing counts too — it is held alive by the buffer.
func (b *Buffer) Footprint() int64 {
	n := int64(cap(b.data))
	n += int64(cap(b.log)) * int64(unsafe.Sizeof(loggedEdit{}))
	for i := range b.log {
		n += int64(len(b.log[i].edit.Inserted))
	}
	return n
}

// Len returns the text length in bytes.
func (b *Buffer) Len() int { return len(b.data) - (b.gapHi - b.gapLo) }

// Version returns the buffer version; it increments on every edit.
func (b *Buffer) Version() int { return b.version }

// String materializes the whole text. The result is cached until the next
// edit, so only the first call after an edit pays the copy; on an unedited
// adopted buffer it is the original source string, zero-copy.
func (b *Buffer) String() string {
	if b.str == "" && b.Len() > 0 {
		if b.gapLo == b.Len() {
			b.str = string(b.data[:b.gapLo])
		} else {
			out := make([]byte, b.Len())
			n := copy(out, b.data[:b.gapLo])
			copy(out[n:], b.data[b.gapHi:])
			b.str = unsafeString(out) // out never escapes as []byte
		}
	}
	return b.str
}

// Slice returns the text in [lo, hi). When the whole text is already
// materialized (unedited adopted buffer, or any buffer after a String
// call) the result is a zero-copy substring; otherwise it is built from at
// most two contiguous spans.
func (b *Buffer) Slice(lo, hi int) string {
	if lo < 0 || hi > b.Len() || lo > hi {
		panic(fmt.Sprintf("text: slice [%d,%d) out of range (len %d)", lo, hi, b.Len()))
	}
	if b.str != "" || b.Len() == 0 {
		return b.str[lo:hi]
	}
	switch {
	case hi <= b.gapLo:
		return string(b.data[lo:hi])
	case lo >= b.gapLo:
		return string(b.data[lo+(b.gapHi-b.gapLo) : hi+(b.gapHi-b.gapLo)])
	default:
		out := make([]byte, hi-lo)
		n := copy(out, b.data[lo:b.gapLo])
		copy(out[n:], b.data[b.gapHi:b.gapHi+(hi-b.gapLo)])
		return unsafeString(out)
	}
}

// Bytes returns the whole text as one contiguous byte slice, moving the
// gap to the end if necessary (no allocation either way). The view is
// read-only — writing through it corrupts the buffer (and, for an adopted
// buffer, the caller's string or mapping) — and is invalidated by the next
// edit.
func (b *Buffer) Bytes() []byte {
	if n := b.Len(); b.gapLo != n {
		b.moveGap(n)
		b.str = "" // spans moved; a cached materialization is stale-free but rebuild lazily
	}
	return b.data[:b.Len()]
}

// View returns the whole text as a string over the buffer's own storage,
// moving the gap to the end if necessary: unlike String it copies nothing.
// The view is valid only until the next edit, which overwrites the bytes
// under it, so a caller that keeps any part of it must copy that part
// first (strings.Clone).
func (b *Buffer) View() string { return unsafeString(b.Bytes()) }

// ByteAt returns the byte at position i.
func (b *Buffer) ByteAt(i int) byte {
	if i < b.gapLo {
		return b.data[i]
	}
	return b.data[i+(b.gapHi-b.gapLo)]
}

// moveGap positions the gap start at offset. Never called while ro (an ro
// buffer's gap is already trailing and zero-width).
func (b *Buffer) moveGap(offset int) {
	switch {
	case offset < b.gapLo:
		n := b.gapLo - offset
		copy(b.data[b.gapHi-n:b.gapHi], b.data[offset:b.gapLo])
		b.gapLo = offset
		b.gapHi -= n
	case offset > b.gapLo:
		n := offset - b.gapLo
		copy(b.data[b.gapLo:], b.data[b.gapHi:b.gapHi+n])
		b.gapLo += n
		b.gapHi += n
	}
}

// grow ensures the gap holds at least n more bytes.
func (b *Buffer) grow(n int) {
	if b.gapHi-b.gapLo >= n {
		return
	}
	newCap := 2*len(b.data) + n
	nd := make([]byte, newCap)
	copy(nd, b.data[:b.gapLo])
	tail := len(b.data) - b.gapHi
	copy(nd[newCap-tail:], b.data[b.gapHi:])
	b.gapHi = newCap - tail
	b.data = nd
}

// detach copies adopted (read-only) backing into owned storage with a gap
// sized for at least n inserted bytes — the copy-on-write step, paid once
// on the first edit.
func (b *Buffer) detach(n int) {
	gap := n + 64
	nd := make([]byte, b.gapLo+gap)
	copy(nd, b.data[:b.gapLo])
	b.data = nd
	b.gapHi = b.gapLo + gap
	b.ro = false
}

// Apply performs the edit, logs it, and bumps the version.
func (b *Buffer) Apply(e Edit) {
	// Overflow-safe: Offset+Removed can wrap negative for adversarial
	// values; compare without the addition.
	if e.Offset < 0 || e.Removed < 0 || e.Offset > b.Len() || e.Removed > b.Len()-e.Offset {
		panic(fmt.Sprintf("text: edit %v out of range (len %d)", e, b.Len()))
	}
	if b.ro {
		b.detach(len(e.Inserted))
	}
	b.str = ""
	b.moveGap(e.Offset)
	b.gapHi += e.Removed // absorb removed bytes into the gap
	b.grow(len(e.Inserted))
	copy(b.data[b.gapLo:], e.Inserted)
	b.gapLo += len(e.Inserted)
	b.version++
	b.log = append(b.log, loggedEdit{version: b.version, edit: e})
}

// Replace is shorthand for Apply.
func (b *Buffer) Replace(offset, removed int, inserted string) {
	b.Apply(Edit{Offset: offset, Removed: removed, Inserted: inserted})
}

// Insert inserts text at offset.
func (b *Buffer) Insert(offset int, s string) { b.Replace(offset, 0, s) }

// Delete removes n bytes at offset.
func (b *Buffer) Delete(offset, n int) { b.Replace(offset, n, "") }

// EditsSince returns the edits applied after version v, oldest first.
func (b *Buffer) EditsSince(v int) []Edit {
	var out []Edit
	for _, le := range b.log {
		if le.version > v {
			out = append(out, le.edit)
		}
	}
	return out
}

// TrimLog discards history at or before version v (memory management).
func (b *Buffer) TrimLog(v int) {
	keep := b.log[:0]
	for _, le := range b.log {
		if le.version > v {
			keep = append(keep, le)
		}
	}
	b.log = keep
}
