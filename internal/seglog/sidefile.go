package seglog

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SideFiles is a family of small, atomically replaced files kept beside
// a log — the stores' checkpoints — named <Prefix>%016d<Suffix> after
// the id each covers. Only the newest Keep are retained, so the
// second-newest survives as a fallback should the newest be damaged.
type SideFiles struct {
	Dir    string
	Prefix string // e.g. "ckpt-"
	Suffix string // e.g. ".ck"
	Keep   int
}

// Path returns the path of the file for id.
func (s SideFiles) Path(id uint64) string {
	return filepath.Join(s.Dir, fmt.Sprintf("%s%016d%s", s.Prefix, id, s.Suffix))
}

// List returns the ids of the files present, ascending.
func (s SideFiles) List() ([]uint64, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: readdir: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		var id uint64
		if _, err := fmt.Sscanf(e.Name(), s.Prefix+"%d"+s.Suffix, &id); err == nil && filepath.Base(s.Path(id)) == e.Name() {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Remove deletes the file for id and makes the removal durable.
func (s SideFiles) Remove(id uint64) error {
	if err := os.Remove(s.Path(id)); err != nil {
		return fmt.Errorf("seglog: side file: %w", err)
	}
	return syncDir(s.Dir)
}

// Write atomically publishes data as the file for id: temp file, fsync,
// rename, directory fsync. Any error up to and including the directory
// fsync is returned and means the new file must not be relied on; the
// previous files are intact either way. Retention — all but the newest
// Keep files, and any temp file a crash left between write and rename —
// runs after that and is best effort: the new file is already durable,
// so failing to delete an old one is not a failure of the write.
func (s SideFiles) Write(id uint64, data []byte) error {
	final := s.Path(id)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: side file: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		return fmt.Errorf("seglog: side file %s: %w", filepath.Base(final), err)
	}
	if err := syncDir(s.Dir); err != nil {
		return err
	}
	if entries, err := os.ReadDir(s.Dir); err == nil {
		for _, e := range entries {
			if name := e.Name(); strings.HasPrefix(name, s.Prefix) && strings.HasSuffix(name, s.Suffix+".tmp") {
				_ = os.Remove(filepath.Join(s.Dir, name)) // best effort, see above
			}
		}
	}
	if ids, err := s.List(); err == nil && len(ids) > s.Keep {
		for _, id := range ids[:len(ids)-s.Keep] {
			_ = os.Remove(s.Path(id)) // best effort, see above
		}
	}
	return nil
}
