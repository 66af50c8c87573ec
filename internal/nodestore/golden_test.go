package nodestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/seglog"
)

// goldenOpts is the fixed configuration of the scripted run: a frozen
// clock and a segment size that forty small nodes overflow many times.
func goldenOpts() Options {
	frozen := time.Unix(1_700_000_000, 0)
	return Options{
		SegmentSize: 512,
		Sync:        SyncInterval,
		CacheBytes:  -1,
		Clock:       func() time.Time { return frozen },
	}
}

// goldenPayload is node i of the batch committed at height h.
func goldenPayload(h, i int) []byte {
	return append([]byte(fmt.Sprintf("node-%d-%d-", h, i)), bytes.Repeat([]byte{'x'}, 7*i+h)...)
}

// writeGoldenNodeStore is the scripted run: eight five-node batches, a
// compaction that drops the odd nodes below height 6 (rewriting sealed
// segments into the active one) and one more batch.
func writeGoldenNodeStore(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, goldenOpts())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	marker := NewMarker()
	for h := 1; h <= 8; h++ {
		var payloads [][]byte
		for i := 0; i < 5; i++ {
			p := goldenPayload(h, i)
			payloads = append(payloads, p)
			if i%2 == 0 {
				marker.Keep(cryptoutil.HashBytes(p))
			}
		}
		putNodes(t, s, uint64(h), payloads...)
	}
	// Ten nodes die: what a sweep drops is no matter of the format.
	if n, err := s.Compact(marker, 6); err != nil || n != 10 {
		t.Fatalf("Compact dropped %d, %v; want the 10 odd nodes below height 6", n, err)
	}
	putNodes(t, s, 9, goldenPayload(9, 0), goldenPayload(9, 1))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// hashDir returns the SHA-256 of every file in dir, keyed by name.
func hashDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out
}

// goldenFiles pins every byte the node store puts on disk — file
// names, segment headers, batch frames of windowed records (including
// the ones compaction copies forward).
var goldenFiles = map[string]string{
	"ns-00000003.seg": "14e5c72e3e1c59f7c035c7da76d8b68556410ba2df93ed064321826797c6d305",
	"ns-00000004.seg": "3a719830054891aa41ad648d7bc3c6e4bdfbb0ebf29aeb79d853d9ab7418a16e",
	"ns-00000005.seg": "9b0a95b06bc2c0ff9fef5a4a6fe9df89ee053a85621681dcb074cf41ef148744",
}

func TestOnDiskGolden(t *testing.T) {
	dir := t.TempDir()
	writeGoldenNodeStore(t, dir)
	got := hashDir(t, dir)
	if len(got) != len(goldenFiles) {
		t.Errorf("run produced %d files, golden has %d: %v", len(got), len(goldenFiles), got)
	}
	for name, want := range goldenFiles {
		if got[name] != want {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], want)
		}
	}
}

// TestRefusesV1Directory: a directory of segments in a format this one
// replaced — DCSNS001, one record a frame, DCSNS002, whose accounts
// hashed the transaction encoding before compact keys, DCSNS003, whose
// branches were never deltas, or DCSNS004, whose leaves were records of
// their own — is refused
// with an error that names its magic, the current one, the segment, the
// directory and the remedy, and is not touched: to the scanner a foreign
// magic is damage at byte 0 of the newest segment, which repair would
// truncate away.
func TestRefusesV1Directory(t *testing.T) {
	const name = "ns-00000009.seg"
	for _, magic := range []string{"DCSNS001", "DCSNS002", "DCSNS003", "DCSNS004"} {
		t.Run(magic, func(t *testing.T) {
			old := seglog.AppendFrame([]byte(magic), []byte("a frame of the old format"))
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, name), old, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(dir, goldenOpts())
			if !errors.Is(err, seglog.ErrReplaced) {
				t.Fatalf("Open of a %s directory = %v, want seglog.ErrReplaced", magic, err)
			}
			for _, want := range []string{magic, segMagic, name, "remove " + dir} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("refusal %q does not say %q", err, want)
				}
			}
			if after, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(after, old) {
				t.Fatalf("the refused segment was modified (%v)", err)
			}
		})
	}
}
