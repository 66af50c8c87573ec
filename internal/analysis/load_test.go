package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseGoListMalformed: truncated or non-JSON `go list` output
// must surface as a decode error, not a panic or silent empty listing.
func TestParseGoListMalformed(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"truncated object", `{"ImportPath": "a", "Dir":`},
		{"not json", `go: downloading something`},
		{"wrong type", `{"ImportPath": 42}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseGoList(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("parseGoList(%q): want error, got nil", tc.in)
			}
		})
	}
}

// TestParseGoListPackageError: a package with a load error (broken
// source, missing dependency) fails the listing with that message.
func TestParseGoListPackageError(t *testing.T) {
	in := `{"ImportPath": "broken/pkg", "Error": {"Err": "no Go files in /x"}}`
	_, err := parseGoList(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "broken/pkg") || !strings.Contains(err.Error(), "no Go files") {
		t.Fatalf("want package error mentioning path and cause, got %v", err)
	}
}

// TestParseGoListRootsAndDeps: DepOnly and file-less packages are not
// roots; roots come back sorted by import path.
func TestParseGoListRootsAndDeps(t *testing.T) {
	in := `
{"ImportPath": "m/b", "Dir": "/m/b", "GoFiles": ["b.go"]}
{"ImportPath": "m/dep", "Dir": "/m/dep", "GoFiles": ["d.go"], "DepOnly": true, "Export": "/cache/dep.a"}
{"ImportPath": "m/a", "Dir": "/m/a", "GoFiles": ["a.go"], "Export": "/cache/a.a"}
{"ImportPath": "m/empty", "Dir": "/m/empty"}
`
	l, err := parseGoList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Roots) != 2 || l.Roots[0].ImportPath != "m/a" || l.Roots[1].ImportPath != "m/b" {
		t.Fatalf("roots = %+v, want sorted [m/a m/b]", l.Roots)
	}
	if l.exportFor["m/dep"] != "/cache/dep.a" {
		t.Errorf("dep export data not recorded: %q", l.exportFor["m/dep"])
	}
}

// TestLookupMissingExportData: an import path without export data is a
// descriptive error (the driver relies on this to distinguish "not
// compiled" from I/O failure).
func TestLookupMissingExportData(t *testing.T) {
	l, err := parseGoList(strings.NewReader(`{"ImportPath": "m/a", "GoFiles": ["a.go"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.lookup("m/ghost"); err == nil || !strings.Contains(err.Error(), `no export data for "m/ghost"`) {
		t.Fatalf("lookup(m/ghost) = %v, want missing-export-data error", err)
	}
}

// TestLookupVendoredImportMap: the vendored-stdlib edge case — cmd/go
// reports e.g. "golang.org/x/net/http2/hpack" imported as
// "vendor/golang.org/x/net/http2/hpack" via ImportMap; lookup must
// chase the mapping before consulting export data.
func TestLookupVendoredImportMap(t *testing.T) {
	dir := t.TempDir()
	exp := filepath.Join(dir, "hpack.a")
	if err := os.WriteFile(exp, []byte("fake export data"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := `{"ImportPath": "vendor/golang.org/x/net/http2/hpack", "GoFiles": ["hpack.go"], "DepOnly": true, "Export": ` + quote(exp) + `, "ImportMap": {"golang.org/x/net/http2/hpack": "vendor/golang.org/x/net/http2/hpack"}}`
	l, err := parseGoList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := l.lookup("golang.org/x/net/http2/hpack")
	if err != nil {
		t.Fatalf("vendored lookup failed: %v", err)
	}
	rc.Close()
}

// TestLoadRejectsCgo: Listing.Load fails loudly on cgo packages (they
// cannot be parsed as plain Go); dcslint skips them instead.
func TestLoadRejectsCgo(t *testing.T) {
	l, err := parseGoList(strings.NewReader(`{"ImportPath": "m/c", "Dir": "/m/c", "GoFiles": ["c.go"], "CgoFiles": ["cgo.go"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(l.Roots[0]); err == nil || !strings.Contains(err.Error(), "cgo") {
		t.Fatalf("Load(cgo pkg) = %v, want cgo error", err)
	}
}

// TestListBadPattern: an unresolvable pattern is reported with go
// list's stderr attached.
func TestListBadPattern(t *testing.T) {
	if _, err := List("", "./does/not/exist/..."); err == nil {
		t.Fatal("List of nonexistent pattern should fail")
	}
}

func quote(s string) string {
	return `"` + strings.ReplaceAll(s, `\`, `\\`) + `"`
}
