package seglog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// A segment file is an 8-byte magic, a fixed-length header extension
// the store defines (the WAL's first sequence number; nothing for the
// node store), then frames, everything big-endian:
//
//	u32 length | u32 crc32c(body) | body
//
// What a body means is the store's business. A frame is self-checking:
// a torn write leaves a short frame and a garbled one fails the CRC, so
// a scan stops at the last good frame boundary — the valid prefix.
const (
	MagicLen       = 8
	FrameHeaderLen = 8
)

// castagnoli is the CRC32C table (the checksum of ext4, iSCSI and most
// production WALs; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of b: the checksum of every frame, and of
// the stores' side files.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Format is what distinguishes one store's files from the other's.
type Format struct {
	Prefix string // segment files are <Prefix>%08d.seg
	Magic  string // opens every segment (MagicLen bytes, versioned)
	ExtLen int    // length of the header extension after the magic
	// MaxBody bounds one frame body, so a garbled length field cannot
	// force a huge allocation during a scan.
	MaxBody int
	// Replaced are the magics of the formats this one replaced: a scan
	// refuses a segment that opens with one (ErrReplaced) rather than
	// take it for damage at byte 0 and have it repaired away.
	Replaced []string
}

// HeaderLen is the byte length of a segment header.
func (f Format) HeaderLen() int { return MagicLen + f.ExtLen }

// SegmentName returns the file name of segment idx.
func (f Format) SegmentName(idx uint64) string { return fmt.Sprintf("%s%08d.seg", f.Prefix, idx) }

// AppendFrame appends to dst the frame whose body is the concatenation
// of parts, and returns the extended slice.
func AppendFrame(dst []byte, parts ...[]byte) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, FrameHeaderLen)...)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	body := dst[at+FrameHeaderLen:]
	binary.BigEndian.PutUint32(dst[at:], uint32(len(body)))
	binary.BigEndian.PutUint32(dst[at+4:], Checksum(body))
	return dst
}

// readHeader reads and checks a segment header, returning the extension.
func (f Format) readHeader(r io.Reader) ([]byte, error) {
	hdr := make([]byte, f.HeaderLen())
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, readFailure(err, "segment header")
	}
	switch m := string(hdr[:MagicLen]); {
	case m == f.Magic:
		return hdr[MagicLen:], nil
	case slices.Contains(f.Replaced, m):
		return nil, fmt.Errorf("%w %s; this version reads and writes %s only and does not convert", ErrReplaced, m, f.Magic)
	default:
		return nil, fmt.Errorf("%w: bad segment magic", ErrDamaged)
	}
}

// readFailure classifies a failed read: running out of file mid-item is
// a torn write, anything else is the disk's problem and never damage —
// damage is what repair truncates, and a disk that failed to answer has
// not said the bytes are bad.
func readFailure(err error, what string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: torn %s", ErrDamaged, what)
	}
	return fmt.Errorf("seglog: read %s: %w", what, err)
}

// Scan reads one segment from r: the header, then every frame. header
// (may be nil) receives the header extension; frame receives each
// CRC-valid body with the offset of its frame. body is reused between
// calls — copy what must outlive the callback. Either callback may
// return ErrDamaged to reject what it was shown.
//
// valid is the byte length of the accepted prefix. err is nil at a
// clean end (EOF exactly at a frame boundary); ErrDamaged when the
// bytes at valid are a short header or frame, an oversized length, a
// CRC mismatch or a rejected frame; otherwise the read error or
// callback error that stopped the scan.
func (f Format) Scan(r io.Reader, header func(ext []byte) error, frame func(off int64, body []byte) error) (valid int64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	ext, err := f.readHeader(br)
	if err == nil && header != nil {
		err = header(ext)
	}
	if err != nil {
		return 0, err
	}
	var buf []byte
	return f.frames(int64(f.HeaderLen()), func(n int) ([]byte, error) {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		_, err := io.ReadFull(br, buf[:n])
		return buf[:n], err
	}, frame)
}

// Frames is Scan of b, the frames of a segment from offset off on, read
// at once, each body a view of b: nil at b's end, ErrDamaged at a frame
// that does not check or ends past it, or frame's error.
func (f Format) Frames(b []byte, off int64, frame func(off int64, body []byte) error) error {
	_, err := f.frames(off, func(n int) (p []byte, err error) {
		switch {
		case len(b) == 0 && n > 0:
			return nil, io.EOF
		case len(b) < n:
			return nil, io.ErrUnexpectedEOF
		}
		p, b = b[:n:n], b[n:]
		return p, nil
	}, frame)
	return err
}

// frames is the frame loop of Scan and Frames from offset valid on: next
// returns the following n bytes, valid until its next call, or fails as
// io.ReadFull does.
func (f Format) frames(valid int64, next func(n int) ([]byte, error), frame func(off int64, body []byte) error) (int64, error) {
	for {
		hdr, err := next(FrameHeaderLen)
		if err == io.EOF {
			return valid, nil
		} else if err != nil {
			return valid, readFailure(err, "frame header")
		}
		n, crc := int(binary.BigEndian.Uint32(hdr)), binary.BigEndian.Uint32(hdr[4:])
		if n > f.MaxBody {
			return valid, fmt.Errorf("%w: frame length %d over limit", ErrDamaged, n)
		}
		body, err := next(n)
		if err != nil {
			return valid, readFailure(err, "frame body")
		}
		if Checksum(body) != crc {
			return valid, fmt.Errorf("%w: crc mismatch", ErrDamaged)
		}
		if err := frame(valid, body); err != nil {
			return valid, err
		}
		valid += int64(FrameHeaderLen + n)
	}
}
