package analysis

import "testing"

func TestInPackages(t *testing.T) {
	markers := []string{"internal/consensus", "internal/obs", "internal/metrics", "internal/state"}
	for path, want := range map[string]bool{
		"internal/consensus":                true, // exact
		"internal/consensus/pow":            true, // prefix
		"dcsledger/internal/obs":            true, // suffix
		"dcsledger/internal/metrics/inner":  true, // inner
		"example.com/m/internal/state/fake": true,
		"dcsledger/internal/observer":       false, // near misses
		"dcsledger/internal/metricsx":       false,
		"dcsledger/internal/statistics":     false,
		"dcsledger/xinternal/consensus":     false,
		"dcsledger/internal/p2p":            false,
		"consensus":                         false,
		"":                                  false,
	} {
		if got := InPackages(path, markers); got != want {
			t.Errorf("InPackages(%q) = %v, want %v", path, got, want)
		}
	}
}
