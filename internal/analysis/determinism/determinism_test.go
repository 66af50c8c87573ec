package determinism_test

import (
	"testing"

	"dcsledger/internal/analysis/atest"
	"dcsledger/internal/analysis/determinism"
)

func TestCritical(t *testing.T) {
	atest.Run(t, "testdata/src/critical", "dcsledger/internal/consensus/fake", determinism.Analyzer)
}

func TestBenignPackageIsExempt(t *testing.T) {
	atest.Run(t, "testdata/src/benign", "dcsledger/internal/bench", determinism.Analyzer)
}

func TestSuppression(t *testing.T) {
	atest.Run(t, "testdata/src/suppress", "dcsledger/internal/state/fake", determinism.Analyzer)
}

// TestLaundered is the interprocedural golden: a time.Now laundered
// through a same-package helper AND a cross-package helper is flagged
// in consensus-critical code, while the sorted-map-fold helper is not.
// The util fixture is analyzed first (exporting taint facts), then the
// laundered fixture imports it — the same dependency-ordered flow
// dcslint runs.
func TestLaundered(t *testing.T) {
	atest.RunPackages(t, []atest.PkgSpec{
		{Dir: "testdata/src/util", ImportPath: "dcsledger/internal/util"},
		{Dir: "testdata/src/laundered", ImportPath: "dcsledger/internal/consensus/fake"},
	}, determinism.Analyzer)
}

// TestSanctioned proves the sanctioned funnels (obs, simclock,
// metrics) neither export taint nor trigger reports: the same
// laundering shape analyzed under a sanctioned path stays silent.
func TestSanctioned(t *testing.T) {
	atest.RunPackages(t, []atest.PkgSpec{
		{Dir: "testdata/src/sanctioned", ImportPath: "dcsledger/internal/obs/fake"},
		{Dir: "testdata/src/sanctioneduser", ImportPath: "dcsledger/internal/consensus/fake2"},
	}, determinism.Analyzer)
}

func TestCriticalPathMatching(t *testing.T) {
	for path, want := range map[string]bool{
		"dcsledger/internal/consensus":          true,
		"dcsledger/internal/consensus/pow":      true,
		"dcsledger/internal/state":              true,
		"dcsledger/internal/txpool":             true,
		"internal/mpt":                          true,
		"dcsledger/internal/bench":              false,
		"dcsledger/internal/p2p":                false,
		"dcsledger/internal/statistics":         false,
		"dcsledger/cmd/ledgerd":                 false,
		"dcsledger/internal/analysis/atest":     false,
		"dcsledger/internal/node":               true,
		"example.com/other/internal/node/inner": true,
		"dcsledger/internal/vm":                 true,
		"dcsledger/internal/contract":           true,
		"dcsledger/internal/types":              true,
		"dcsledger/internal/wire":               true,
		"dcsledger/internal/store":              true,
		"dcsledger/internal/incentive":          true,
		"dcsledger/internal/typesx":             false,
		"dcsledger/internal/storage":            false,
	} {
		if got := determinism.Critical(path); got != want {
			t.Errorf("Critical(%q) = %v, want %v", path, got, want)
		}
	}
}
