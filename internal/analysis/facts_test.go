package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

// tFact is a minimal fact type for round-trip tests.
type tFact struct {
	Kinds []string
	Via   string
}

func (*tFact) AFact() {}

// otherFact is a second fact type, to check that an import asks for
// the type the fact was exported with.
type otherFact struct{}

func (*otherFact) AFact() {}

// TestFactStoreRoundTrip: a fact one package's pass exports is what a
// dependent package's pass of the same analyzer imports, and only that
// analyzer's, into a pointer of the exported type.
func TestFactStoreRoundTrip(t *testing.T) {
	store := NewFactStore()
	det, other := &Analyzer{Name: "determinism"}, &Analyzer{Name: "goroleak"}
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	stamp := types.NewFunc(token.NoPos, types.NewPackage("example.com/m/util", "util"), "Stamp", sig)

	util := &Pass{Analyzer: det, Path: "example.com/m/util", Facts: store}
	util.ExportFunctionFact(stamp, &tFact{Kinds: []string{"wallclock"}, Via: "time.Now"})

	consensus := &Pass{Analyzer: det, Path: "example.com/m/consensus", Facts: store}
	var got tFact
	if !consensus.ImportFunctionFact(stamp, &got) {
		t.Fatal("fact missing in the dependent package's pass")
	}
	if got.Via != "time.Now" || len(got.Kinds) != 1 || got.Kinds[0] != "wallclock" {
		t.Errorf("fact corrupted: %+v", got)
	}
	if consensus.ImportFunctionFact(stamp, &otherFact{}) {
		t.Error("imported a fact into a pointer of another type")
	}
	if (&Pass{Analyzer: other, Facts: store}).ImportFunctionFact(stamp, &tFact{}) {
		t.Error("one analyzer's fact visible to another")
	}
}
