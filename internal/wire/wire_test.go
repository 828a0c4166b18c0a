package wire

import (
	"encoding/binary"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	buf := binary.AppendUvarint(nil, 300)
	buf = binary.AppendVarint(buf, -7)
	buf = append(buf, 0xAB)
	buf = AppendString(buf, "héllo")
	buf = append(buf, 1, 2)
	r := NewReader(buf)
	if u, v, b, s := r.Uvarint(), r.Varint(), r.Byte(), r.Str(); u != 300 || v != -7 || b != 0xAB || s != "héllo" {
		t.Fatalf("read %d %d %#x %q", u, v, b, s)
	}
	if r.Bad() || string(r.Rest()) != "\x01\x02" {
		t.Fatalf("bad=%v rest=%q", r.Bad(), r.Rest())
	}
}

// TestReaderFailureIsSticky: a count larger than the bytes left fails
// without allocating, and every later read returns a zero value.
func TestReaderFailureIsSticky(t *testing.T) {
	buf := binary.AppendUvarint(nil, 1<<63+5)
	r := NewReader(append(buf, "abc"...))
	if n := r.Count(); n != 0 || !r.Bad() {
		t.Fatalf("Count = %d, bad = %v; want 0, true", n, r.Bad())
	}
	if r.Byte() != 0 || r.Uvarint() != 0 || r.Str() != "" || r.Bytes(1) != nil || r.Rest() != nil {
		t.Fatal("read after a failure returned data")
	}
	for _, data := range [][]byte{nil, {0x80}, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}} {
		if r := NewReader(data); r.Varint() != 0 || !r.Bad() {
			t.Fatalf("malformed varint %x accepted", data)
		}
	}
	if r := NewReader([]byte("ab")); r.Bytes(-1) != nil || !r.Bad() {
		t.Fatal("negative length accepted")
	}
}
