package wal

import (
	"bufio"
	"bytes"
	"errors"
	"io"

	"dcsledger/internal/seglog"
)

// Names the pre-seglog tests and the fuzz target were written against,
// kept so those files stay exactly what they were: each is now a thin
// view onto internal/seglog plus this package's record codec.

const frameHeaderLen = seglog.FrameHeaderLen

var segHeaderLen = format.HeaderLen()

func segName(idx uint64) string { return format.SegmentName(idx) }

// decodeFrame reads the first frame from r through the shared scanner
// (behind a synthetic segment header), returning the record and the
// frame length consumed. Any failure is io.EOF: the fuzz target only
// distinguishes "decoded" from "did not".
func decodeFrame(r *bufio.Reader) (Record, int, error) {
	errGotOne := errors.New("one frame is enough")
	var (
		rec Record
		n   int
	)
	header := append([]byte(segMagic), seqExt(1)...)
	_, err := format.Scan(io.MultiReader(bytes.NewReader(header), r),
		nil,
		func(_ int64, body []byte) error {
			got, ok := decodeRecord(body)
			if !ok {
				return seglog.ErrDamaged
			}
			rec, n = got, seglog.FrameHeaderLen+len(body)
			rec.Payload = append([]byte(nil), rec.Payload...)
			return errGotOne
		})
	if err != errGotOne {
		return Record{}, 0, io.EOF
	}
	return rec, n, nil
}
