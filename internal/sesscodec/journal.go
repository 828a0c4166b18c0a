package sesscodec

import (
	"encoding/binary"
	"hash/crc32"

	"iglr/internal/wire"
)

// Write-ahead journal framing. Between snapshots the daemon appends one
// record per accepted edit batch:
//
//	4-byte LE payload length | 4-byte LE CRC-32C of payload | payload
//	payload: uvarint seq | uvarint edit count |
//	         per edit: uvarint offset, uvarint remove, inserted string
//
// Records carry a monotonically increasing sequence number; a snapshot
// stores the sequence of the last record it includes (State.Tag), so
// replay after a crash skips records the snapshot already covers. That
// makes journal truncation after a snapshot an optimization, not a
// correctness requirement — the crash window between snapshot rename and
// journal truncate double-applies nothing.
//
// The journal is append-only and read strictly in order: DecodeJournal
// stops at the first record that is short, fails its checksum, or is
// malformed, and reports the tail as torn. A torn tail is the expected
// signature of a crash mid-append; everything before it is intact (each
// record was fsynced before the edit it records was applied).

// JournalEdit is one text edit as journaled: remove `Remove` bytes at
// `Offset`, insert `Insert`. The removed text is not recorded — replay
// recovers it from the document, exactly as the live edit did.
type JournalEdit struct {
	Offset int
	Remove int
	Insert string
}

// JournalRecord is one journaled edit batch.
type JournalRecord struct {
	Seq   uint64
	Edits []JournalEdit
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxJournalPayload bounds a single record; a length prefix beyond it is
// treated as corruption rather than attempted as an allocation.
const maxJournalPayload = 1 << 28

// AppendJournalRecord appends the framed encoding of rec to buf.
func AppendJournalRecord(buf []byte, rec JournalRecord) []byte {
	payload := binary.AppendUvarint(nil, rec.Seq)
	payload = binary.AppendUvarint(payload, uint64(len(rec.Edits)))
	for _, e := range rec.Edits {
		payload = binary.AppendUvarint(payload, uint64(e.Offset))
		payload = binary.AppendUvarint(payload, uint64(e.Remove))
		payload = wire.AppendString(payload, e.Insert)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// DecodeJournal parses every intact record of a journal, in order. It
// stops at the first short, checksum-failing, or malformed record and
// reports torn=true for that tail; the records before it are valid. An
// empty journal yields (nil, false).
func DecodeJournal(data []byte) (recs []JournalRecord, torn bool) {
	for len(data) > 0 {
		if len(data) < 8 {
			return recs, true
		}
		n := binary.LittleEndian.Uint32(data[0:4])
		sum := binary.LittleEndian.Uint32(data[4:8])
		if n > maxJournalPayload || uint32(len(data)-8) < n {
			return recs, true
		}
		payload := data[8 : 8+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, true
		}
		rec, ok := decodeJournalPayload(payload)
		if !ok {
			return recs, true
		}
		recs = append(recs, rec)
		data = data[8+n:]
	}
	return recs, false
}

func decodeJournalPayload(payload []byte) (JournalRecord, bool) {
	r := wire.NewReader(payload)
	var rec JournalRecord
	rec.Seq = r.Uvarint()
	n := r.Count()
	if r.Bad() {
		return rec, false
	}
	rec.Edits = make([]JournalEdit, 0, n)
	for i := 0; i < n; i++ {
		off := r.Uvarint()
		rem := r.Uvarint()
		ins := r.Str()
		// Offsets and removal counts are bounded by any plausible text
		// size; reject values that cannot fit an int so replay arithmetic
		// never overflows.
		if r.Bad() || off > 1<<48 || rem > 1<<48 {
			return rec, false
		}
		rec.Edits = append(rec.Edits, JournalEdit{Offset: int(off), Remove: int(rem), Insert: ins})
	}
	if len(r.Rest()) != 0 {
		return rec, false
	}
	return rec, true
}
