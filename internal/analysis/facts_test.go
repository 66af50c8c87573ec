package analysis

import (
	"encoding/gob"
	"path/filepath"
	"testing"
)

// tFact is a minimal fact type for round-trip tests.
type tFact struct {
	Kinds []string
	Via   string
}

func (*tFact) AFact() {}

// TestFactStoreRoundTrip: facts survive gob serialization to disk and
// merge into a fresh store — the property the vettool vetx path needs.
func TestFactStoreRoundTrip(t *testing.T) {
	gob.Register(&tFact{})
	s := NewFactStore()
	key := factKey{Analyzer: "determinism", Func: "example.com/m/util.Stamp"}
	s.put("example.com/m/util", key, &tFact{Kinds: []string{"wallclock"}, Via: "time.Now"})

	path := filepath.Join(t.TempDir(), "facts.vetx")
	if err := s.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	fresh := NewFactStore()
	if err := fresh.ReadFile(path); err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	got, ok := fresh.get("example.com/m/util", key).(*tFact)
	if !ok {
		t.Fatalf("fact missing after round trip")
	}
	if got.Via != "time.Now" || len(got.Kinds) != 1 || got.Kinds[0] != "wallclock" {
		t.Errorf("fact corrupted: %+v", got)
	}
}

// TestFactStoreReadEmptyFile: an empty vetx (a unit that exported no
// facts) reads as no facts, not an error.
func TestFactStoreReadEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.vetx")
	if err := NewFactStore().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	s := NewFactStore()
	if err := s.ReadFile(path); err != nil {
		t.Fatalf("reading empty vetx: %v", err)
	}
}

// TestPkgOfFuncKey: fact records are bucketed by the package parsed
// out of the function's full name, for both plain and method forms.
func TestPkgOfFuncKey(t *testing.T) {
	for full, want := range map[string]string{
		"example.com/m/util.Stamp":        "example.com/m/util",
		"(*example.com/m/p2p.Gossiper).X": "example.com/m/p2p",
		"(example.com/m/p2p.Stats).Y":     "example.com/m/p2p",
		"main.run":                        "main",
	} {
		if got := pkgOfFuncKey(full); got != want {
			t.Errorf("pkgOfFuncKey(%q) = %q, want %q", full, got, want)
		}
	}
}
