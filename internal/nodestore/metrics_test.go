package nodestore

import (
	"bytes"
	"testing"

	"dcsledger/internal/metrics"
)

// TestSegmentLogMetrics: the node store reports what the WAL reports —
// fsyncs, bytes, rotations, torn bytes — beside the names it always had.
func TestSegmentLogMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s := testOpen(t, dir, Options{SegmentSize: 256})
	s.RegisterMetrics(reg)
	for h := uint64(1); h <= 4; h++ {
		putNodes(t, s, h, bytes.Repeat([]byte{byte(h)}, 100), bytes.Repeat([]byte{byte(h)}, 101))
	}
	st, snap := s.Stats(), reg.Snapshot()
	if st.Rotations == 0 || st.Syncs < 4 {
		t.Fatalf("stats %+v: want rotations and one fsync per batch", st)
	}
	for name, want := range map[string]uint64{
		"nodestore_fsyncs_total":        st.Syncs,
		"nodestore_bytes_written_total": st.Bytes,
		"nodestore_rotations_total":     st.Rotations,
		"nodestore_appends_total":       8,
		"nodestore_records":             8,
		"nodestore_segments":            uint64(st.Segments),
	} {
		if got, ok := snap[name]; !ok || uint64(got) != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	if got, ok := snap["nodestore_torn_truncated_bytes_total"]; !ok || got != 0 {
		t.Errorf("nodestore_torn_truncated_bytes_total = %d (present %v) on a clean store", got, ok)
	}
}
