// Package text provides an editable text buffer, the textual half of the
// self-versioning document model the incremental analyses are built on
// (Wagner & Graham, CompCon 97 [26]).
//
// The buffer is optimized for the two lives a document actually leads.
// Cold (batch) inputs are adopted without copying: NewBuffer aliases the
// source string — possibly an mmap'd file (see MapFile) — and every read
// (String, Slice, Bytes, ByteAt) is served zero-copy from that backing
// until the first edit, which detaches into owned storage (copy-on-write).
// Warm (editing) buffers hold the text as one flat byte slice: the
// document relexes it in place after every edit (View), so keeping it
// contiguous is what matters. A same-length edit moves nothing; a
// length-changing edit moves the byte tail once.
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

// Buffer is an editable byte buffer. The zero value is an empty buffer.
type Buffer struct {
	data []byte

	// ro marks adopted, possibly shared backing storage (NewBuffer,
	// NewBufferBytes): data must never be written through; the first Apply
	// detaches into an owned array.
	ro bool
	// str caches the materialized text: the adopted source string while ro,
	// or the result of the last String() call since the last edit. "" means
	// not cached (or genuinely empty — Len disambiguates).
	str string
}

// NewBuffer creates a buffer holding s. The string is adopted, not copied:
// until the first edit the buffer reads directly from s's bytes (and
// String returns s itself), so opening a large cold file costs no copy.
// The first Apply detaches the buffer into owned storage, leaving s
// untouched.
func NewBuffer(s string) *Buffer {
	return &Buffer{data: unsafe.Slice(unsafe.StringData(s), len(s)), ro: true, str: s}
}

// NewBufferBytes creates a buffer over data without copying it. The caller
// promises not to mutate data for the buffer's lifetime (an mmap'd region,
// Mapped.Bytes, satisfies this); the buffer itself never writes through it
// (copy-on-write, as NewBuffer). Close an underlying mapping only after
// the buffer has been edited once or is no longer read.
func NewBufferBytes(data []byte) *Buffer {
	return &Buffer{data: data, ro: true, str: unsafeString(data)}
}

// unsafeString views b as a string without copying. Callers must guarantee
// b is never written while the string is reachable.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Footprint estimates the buffer's resident bytes: the backing array.
// Adopted (ro) backing counts too — it is held alive by the buffer.
func (b *Buffer) Footprint() int64 { return int64(cap(b.data)) }

// Len returns the text length in bytes.
func (b *Buffer) Len() int { return len(b.data) }

// String materializes the whole text. The result is cached until the next
// edit, so only the first call after an edit pays the copy; on an unedited
// adopted buffer it is the original source string, zero-copy.
func (b *Buffer) String() string {
	if b.str == "" && len(b.data) > 0 {
		b.str = string(b.data)
	}
	return b.str
}

// Slice returns the text in [lo, hi). When the whole text is already
// materialized (unedited adopted buffer, or any buffer after a String
// call) the result is a zero-copy substring; otherwise it is a copy.
func (b *Buffer) Slice(lo, hi int) string {
	if lo < 0 || hi > len(b.data) || lo > hi {
		panic(fmt.Sprintf("text: slice [%d,%d) out of range (len %d)", lo, hi, len(b.data)))
	}
	if b.str != "" {
		return b.str[lo:hi]
	}
	return string(b.data[lo:hi])
}

// Bytes returns the whole text as one contiguous byte slice, without
// copying. The view is read-only — writing through it corrupts the buffer
// (and, for an adopted buffer, the caller's string or mapping) — and is
// invalidated by the next edit.
func (b *Buffer) Bytes() []byte { return b.data }

// View returns the whole text as a string over the buffer's own storage:
// unlike String it copies nothing. The view is valid only until the next
// edit, which overwrites the bytes under it, so a caller that keeps any
// part of it must copy that part first (strings.Clone).
func (b *Buffer) View() string { return unsafeString(b.data) }

// ByteAt returns the byte at position i.
func (b *Buffer) ByteAt(i int) byte { return b.data[i] }

// Apply performs the edit. Owned storage is edited in place: the bytes
// after the removed span move once, by the edit's delta, and only when the
// delta is non-zero.
func (b *Buffer) Apply(e Edit) {
	// Overflow-safe: Offset+Removed can wrap negative for adversarial
	// values; compare without the addition.
	if e.Offset < 0 || e.Removed < 0 || e.Offset > len(b.data) || e.Removed > len(b.data)-e.Offset {
		panic(fmt.Sprintf("text: edit %v out of range (len %d)", e, len(b.data)))
	}
	b.str = ""
	n := len(b.data) + e.Delta()
	tail := b.data[e.Offset+e.Removed:]
	if b.ro || n > cap(b.data) {
		// Copy-on-write detach of adopted backing, or growth: the new array
		// is assembled in one pass, with room for later insertions.
		nd := make([]byte, n, n+n/8+64)
		copy(nd, b.data[:e.Offset])
		copy(nd[e.Offset+len(e.Inserted):], tail)
		b.data, b.ro = nd, false
	} else if e.Delta() != 0 {
		copy(b.data[:n][e.Offset+len(e.Inserted):], tail)
		b.data = b.data[:n]
	}
	copy(b.data[e.Offset:], e.Inserted)
}

// Replace is shorthand for Apply.
func (b *Buffer) Replace(offset, removed int, inserted string) {
	b.Apply(Edit{Offset: offset, Removed: removed, Inserted: inserted})
}

// Insert inserts text at offset.
func (b *Buffer) Insert(offset int, s string) { b.Replace(offset, 0, s) }

// Delete removes n bytes at offset.
func (b *Buffer) Delete(offset, n int) { b.Replace(offset, n, "") }
