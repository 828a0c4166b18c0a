package incremental_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	incremental "iglr"
)

// TestLoadCompiledRejectsHugeSymbolCount: a count read from an artifact
// never sizes an allocation past the bytes that remain. The expr artifact
// with its grammar's symbol count rewritten to 2^63+5 and the checksum
// recomputed is intact by its checksum, corrupt behind it; the load fails
// with an error instead of panicking.
func TestLoadCompiledRejectsHugeSymbolCount(t *testing.T) {
	var buf bytes.Buffer
	if err := incremental.ExprLanguage().SaveCompiled(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[:buf.Len()-sha256.Size]
	at := bytes.Index(body, []byte("IGGR")) + len("IGGR") + 1 // grammar magic, one-byte version
	_, n := binary.Uvarint(body[at:])
	data := append(append([]byte(nil), body[:at]...), binary.AppendUvarint(nil, 1<<63+5)...)
	data = append(data, body[at+n:]...)
	sum := sha256.Sum256(data)
	if _, err := incremental.LoadCompiled(append(data, sum[:]...)); err == nil {
		t.Fatal("LoadCompiled accepted a symbol count of 2^63+5")
	}
}
