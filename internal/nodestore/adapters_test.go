package nodestore

import (
	"errors"
	"os"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/seglog"
)

// Names the pre-seglog tests and the fuzz target were written against,
// kept so those files stay exactly what they were: each is now a thin
// view onto internal/seglog plus this package's record codec.

var segHeaderLen = format.HeaderLen()

func segName(idx uint64) string { return format.SegmentName(idx) }

// errBadFrame is what the old scanner called damage.
var errBadFrame = errors.New("nodestore: bad frame")

// scanSegment walks one segment file through the shared scanner,
// invoking fn for every valid record with its hash, height, frame
// offset and frame length. It returns the byte length of the valid
// prefix; errBadFrame reports damage at that offset.
func scanSegment(path string, fn func(h cryptoutil.Hash, height uint64, off int64, n int32, payload []byte)) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	valid, err := format.Scan(f, nil,
		func(off int64, body []byte) error {
			height, h, payload, ok := decodeRecord(body)
			if !ok {
				return seglog.ErrDamaged
			}
			fn(h, height, off, int32(seglog.FrameHeaderLen+len(body)), payload)
			return nil
		})
	if errors.Is(err, seglog.ErrDamaged) {
		return valid, errBadFrame
	}
	return valid, err
}
