package text

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"
)

// TestAdoptZeroCopy: an unedited buffer serves every read from the adopted
// string's own bytes — no copies.
func TestAdoptZeroCopy(t *testing.T) {
	src := strings.Repeat("the quick brown fox\n", 64)
	b := NewBuffer(src)

	if got := b.String(); unsafe.StringData(got) != unsafe.StringData(src) {
		t.Fatal("String() on unedited buffer is not the adopted string")
	}
	if got := b.Slice(4, 9); got != "quick" {
		t.Fatalf("Slice = %q", got)
	} else if unsafe.StringData(got) != unsafe.StringData(src[4:9]) {
		t.Fatal("Slice() on unedited buffer copied")
	}
	if bs := b.Bytes(); unsafe.SliceData(bs) != unsafe.StringData(src) {
		t.Fatal("Bytes() on unedited buffer copied")
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = b.String()
		_ = b.Slice(1, 10)
		_ = b.Bytes()
	})
	if allocs != 0 {
		t.Fatalf("unedited reads allocate: %v allocs/op", allocs)
	}
}

// TestCopyOnWriteLeavesOriginal: the first edit detaches; the adopted
// string is never written through.
func TestCopyOnWriteLeavesOriginal(t *testing.T) {
	src := "hello, world"
	b := NewBuffer(src)
	b.Replace(0, 5, "goodbye")
	if src != "hello, world" {
		t.Fatalf("adopted string mutated: %q", src)
	}
	if got := b.String(); got != "goodbye, world" {
		t.Fatalf("after edit: %q", got)
	}
	if unsafe.StringData(b.String()) == unsafe.StringData(src) {
		t.Fatal("edited buffer still aliases the adopted string")
	}
}

// TestStringCacheAcrossEdits: String() is stable and correct before/after
// edits, and repeated calls between edits don't re-copy.
func TestStringCacheAcrossEdits(t *testing.T) {
	b := NewBuffer("abc def ghi")
	b.Replace(4, 3, "DEF")
	s1 := b.String()
	s2 := b.String()
	if s1 != "abc DEF ghi" {
		t.Fatalf("got %q", s1)
	}
	if unsafe.StringData(s1) != unsafe.StringData(s2) {
		t.Fatal("String() not cached between edits")
	}
	b.Delete(0, 4)
	if got := b.String(); got != "DEF ghi" {
		t.Fatalf("after second edit: %q", got)
	}
}

// TestEditsSpanningGap exercises edits that straddle the span a previous
// edit inserted, including removals crossing it in both directions.
func TestEditsSpanningGap(t *testing.T) {
	src := strings.Repeat("abcdefghij", 100) // 1000 bytes
	b := NewBuffer(src)
	ref := []byte(src)

	apply := func(off, rem int, ins string) {
		t.Helper()
		b.Replace(off, rem, ins)
		ref = append(ref[:off], append([]byte(ins), ref[off+rem:]...)...)
		if got := b.String(); got != string(ref) {
			t.Fatalf("divergence after @%d -%d +%q", off, rem, ins)
		}
	}

	apply(500, 0, "MID")   // inserted span [500,503)
	apply(490, 20, "SPAN") // removal crosses it from the left
	apply(100, 0, "LEFT")  // far left of it
	apply(95, 10, "X")     // removal crosses the new insertion
	apply(0, 0, "HEAD")
	apply(b.Len()-5, 5, "TAIL") // at the far right
	apply(0, b.Len(), "")       // delete everything
	if b.Len() != 0 || b.String() != "" {
		t.Fatalf("expected empty, got %q", b.String())
	}
	apply(0, 0, "rebuilt")
}

// TestMultiMBBuffer: multi-megabyte adopted buffer — zero-copy reads, a
// mid-file edit, and Bytes() after it all stay correct.
func TestMultiMBBuffer(t *testing.T) {
	var sb strings.Builder
	line := "func f(x int) int { return x * 2 } // padding padding padding\n"
	for sb.Len() < 4<<20 {
		sb.WriteString(line)
	}
	src := sb.String()
	b := NewBuffer(src)
	if b.Len() != len(src) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(src))
	}
	if unsafe.StringData(b.String()) != unsafe.StringData(src) {
		t.Fatal("multi-MB adoption copied")
	}

	mid := len(src) / 2
	b.Replace(mid, 10, "EDITED")
	want := src[:mid] + "EDITED" + src[mid+10:]
	if got := b.String(); got != want {
		t.Fatal("multi-MB edit diverged")
	}
	// Bytes() must match, with the edit in place.
	if got := b.Bytes(); !bytes.Equal(got, []byte(want)) {
		t.Fatal("Bytes() diverged after edit")
	}
	// Slice across the edited region.
	if got := b.Slice(mid-3, mid+9); got != want[mid-3:mid+9] {
		t.Fatalf("Slice across edit = %q", got)
	}
}

// TestBytesContiguous: after a mid-text edit, Bytes() and View() return
// the whole text contiguously, without allocating.
func TestBytesContiguous(t *testing.T) {
	b := NewBuffer("0123456789")
	b.Insert(5, "---")
	want := "01234---56789"
	allocs := testing.AllocsPerRun(10, func() {
		if got := b.Bytes(); string(got) != want {
			t.Fatalf("Bytes = %q, want %q", got, want)
		}
		if got := b.View(); got != want {
			t.Fatalf("View = %q, want %q", got, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("Bytes()/View() allocate: %v allocs/op", allocs)
	}
}

func TestAdoptEmptyString(t *testing.T) {
	b := NewBuffer("")
	if b.Len() != 0 || b.String() != "" || len(b.Bytes()) != 0 {
		t.Fatal("empty adoption broken")
	}
	b.Insert(0, "x")
	if b.String() != "x" {
		t.Fatalf("got %q", b.String())
	}
}
