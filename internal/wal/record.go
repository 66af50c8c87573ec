package wal

import (
	"encoding/binary"

	"dcsledger/internal/seglog"
)

// Record body layout inside a seglog frame (big-endian):
//
//	u64  seq
//	u8   type
//	[]   payload

// encodeFrame renders one record into its on-disk frame.
func encodeFrame(rec Record) []byte {
	var hdr [recordHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[:8], rec.Seq)
	hdr[8] = rec.Type
	return seglog.AppendFrame(make([]byte, 0, seglog.FrameHeaderLen+recordHeaderLen+len(rec.Payload)), hdr[:], rec.Payload)
}

// decodeRecord parses a frame body; false if it is too short to hold a
// record header. Payload aliases body.
func decodeRecord(body []byte) (Record, bool) {
	if len(body) < recordHeaderLen {
		return Record{}, false
	}
	rec := Record{Seq: binary.BigEndian.Uint64(body[:8]), Type: body[8]}
	if len(body) > recordHeaderLen {
		rec.Payload = body[recordHeaderLen:]
	}
	return rec, true
}
