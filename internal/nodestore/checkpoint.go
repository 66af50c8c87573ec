package nodestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/seglog"
	"dcsledger/internal/wire"
)

// Checkpoint metadata: a tiny atomically-written file naming the trie
// roots that were durable at a given height. It plays the same role
// for the node store that ckpt-<seq>.ck files play for the WAL's
// DurableStore — after a crash, recovery loads the newest valid meta,
// re-opens the store, and resumes from the recorded roots; pruning
// uses the checkpoint height as its floor. Like those files it is a
// magic and a CRC-covered body published through seglog.SideFiles
// (atomic replace, newest two retained); damaged files are skipped but
// never trusted.

const (
	ckptMagic = "DCSNSCK1"
	ckptKeep  = 2
)

// ErrNoCheckpoint reports that no valid checkpoint meta exists.
var ErrNoCheckpoint = errors.New("nodestore: no checkpoint")

// Checkpoint names the roots durable at a height.
type Checkpoint struct {
	Height uint64
	// Roots maps a role name (e.g. "state") to a trie root hash.
	Roots map[string]cryptoutil.Hash
}

// encode renders the canonical checkpoint body (names sorted).
func (c *Checkpoint) encode() []byte {
	names := make([]string, 0, len(c.Roots))
	for name := range c.Roots {
		names = append(names, name)
	}
	sort.Strings(names)
	var b wire.Buffer
	b.U64(c.Height)
	b.U32(uint32(len(names)))
	for _, name := range names {
		b.String(name)
		h := c.Roots[name]
		b.Raw(h[:])
	}
	return b.Bytes()
}

// decodeCheckpoint parses a checkpoint body, enforcing sorted unique
// names so the encoding stays canonical.
func decodeCheckpoint(body []byte) (*Checkpoint, error) {
	r := wire.NewReader(body)
	c := &Checkpoint{Roots: make(map[string]cryptoutil.Hash)}
	c.Height = r.U64()
	n := r.Count(1024)
	prev := ""
	for i := 0; i < int(n); i++ {
		name := r.String(64)
		var h cryptoutil.Hash
		r.Raw(h[:])
		if r.Err() != nil {
			break
		}
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("nodestore: checkpoint roots not sorted")
		}
		prev = name
		c.Roots[name] = h
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("nodestore: checkpoint decode: %w", err)
	}
	return c, nil
}

// WriteCheckpoint atomically persists checkpoint meta in the store
// directory, retaining the newest ckptKeep metas. The store's segments
// are fsynced first so the checkpoint never names roots whose nodes
// could still be lost to a crash.
func (s *Store) WriteCheckpoint(c Checkpoint) error {
	if err := s.Sync(); err != nil {
		return err
	}
	body := c.encode()
	// File layout: magic | u32 len | u32 crc32c(body) | body.
	buf := make([]byte, 0, len(ckptMagic)+8+len(body))
	buf = append(buf, ckptMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
	buf = binary.BigEndian.AppendUint32(buf, seglog.Checksum(body))
	buf = append(buf, body...)
	return s.ckpts.Write(c.Height, buf)
}

// LoadCheckpoint returns the newest valid checkpoint meta, skipping
// (but never trusting) damaged files. ErrNoCheckpoint if none.
func (s *Store) LoadCheckpoint() (*Checkpoint, error) {
	heights, err := s.checkpointHeights()
	if err != nil {
		return nil, err
	}
	for i := len(heights) - 1; i >= 0; i-- {
		c, err := readCheckpointFile(s.ckpts.Path(heights[i]))
		if err == nil {
			return c, nil
		}
	}
	return nil, ErrNoCheckpoint
}

// checkpointHeights lists the heights of the metas on disk, ascending.
func (s *Store) checkpointHeights() ([]uint64, error) { return s.ckpts.List() }

func readCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(ckptMagic)+8 || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("nodestore: bad checkpoint magic")
	}
	rest := data[len(ckptMagic):]
	n := binary.BigEndian.Uint32(rest)
	crc := binary.BigEndian.Uint32(rest[4:])
	body := rest[8:]
	if int(n) != len(body) {
		return nil, fmt.Errorf("nodestore: checkpoint length mismatch")
	}
	if seglog.Checksum(body) != crc {
		return nil, fmt.Errorf("nodestore: checkpoint crc mismatch")
	}
	return decodeCheckpoint(body)
}
