package main_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles the dcslint binary once per test run.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dcslint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building dcslint: %v\n%s", err, out)
	}
	return bin
}

// writeViolatingModule creates a throwaway module whose
// internal/node package calls time.Now — a determinism finding.
func writeViolatingModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "go.mod"), "module vetsmoke\n\ngo 1.22\n")
	mustWrite(t, filepath.Join(dir, "internal", "node", "bad.go"), `package node

import "time"

// Stamp leaks wall time into a consensus-critical package.
func Stamp() int64 { return time.Now().UnixNano() }
`)
	return dir
}

func mustWrite(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestVersionHandshake(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	s := string(out)
	if !strings.HasPrefix(s, "dcslint version ") || !strings.Contains(s, "buildID=") {
		t.Errorf("-V=full output %q: want 'dcslint version ... buildID=<hex>' (cmd/go parses the last field)", s)
	}
}

func TestFlagsHandshake(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(out, &flags); err != nil {
		t.Fatalf("-flags output is not a JSON flag list: %v\n%s", err, out)
	}
	if len(flags) == 0 {
		t.Error("-flags reported no flags; cmd/go needs at least the handshake flags")
	}
}

func TestStandaloneFindsViolation(t *testing.T) {
	bin := buildTool(t)
	dir := writeViolatingModule(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("want exit 1 on findings, got %v\nstdout: %s\nstderr: %s", err, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "time.Now") || !strings.Contains(stdout.String(), "[determinism]") {
		t.Errorf("missing determinism finding in output:\n%s", &stdout)
	}
}

func TestVettoolFindsViolation(t *testing.T) {
	bin := buildTool(t)
	dir := writeViolatingModule(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool should fail on the violating module; output:\n%s", out)
	}
	if !strings.Contains(string(out), "time.Now") || !strings.Contains(string(out), "[determinism]") {
		t.Errorf("missing determinism finding in go vet output:\n%s", out)
	}
}

func TestVettoolCleanModule(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "go.mod"), "module vetclean\n\ngo 1.22\n")
	mustWrite(t, filepath.Join(dir, "internal", "node", "ok.go"), `package node

// Height is deterministic: nothing for dcslint to flag.
func Height(parent uint64) uint64 { return parent + 1 }
`)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool on clean module: %v\n%s", err, out)
	}
}

// writeLaunderingModule creates a module where the nondeterminism is
// laundered through a helper package: only the interprocedural facts
// path can flag the consensus-side call.
func writeLaunderingModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "go.mod"), "module vetfacts\n\ngo 1.22\n")
	mustWrite(t, filepath.Join(dir, "internal", "util", "util.go"), `package util

import "time"

// Stamp launders a wall-clock read.
func Stamp() int64 { return time.Now().UnixNano() }
`)
	mustWrite(t, filepath.Join(dir, "internal", "consensus", "c.go"), `package consensus

import "vetfacts/internal/util"

// Deadline consumes the laundered clock in critical code.
func Deadline() int64 { return util.Stamp() }
`)
	return dir
}

// TestVettoolCrossPackageFacts proves taint facts ride the unitchecker
// vetx protocol: the laundering helper lives in a dependency package,
// so the finding in the consensus package exists only if PackageVetx
// facts were written and read back.
func TestVettoolCrossPackageFacts(t *testing.T) {
	bin := buildTool(t)
	dir := writeLaunderingModule(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool should fail on the laundering module; output:\n%s", out)
	}
	if !strings.Contains(string(out), "[determinism]") || !strings.Contains(string(out), "Stamp → time.Now") {
		t.Errorf("missing cross-package determinism finding in go vet output:\n%s", out)
	}
}

// TestStandaloneCrossPackageFacts proves the concurrent standalone
// driver analyzes in dependency order over the shared fact store.
func TestStandaloneCrossPackageFacts(t *testing.T) {
	bin := buildTool(t)
	dir := writeLaunderingModule(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, _ := cmd.CombinedOutput()
	if !strings.Contains(string(out), "[determinism]") || !strings.Contains(string(out), "Stamp → time.Now") {
		t.Errorf("missing cross-package determinism finding in standalone output:\n%s", out)
	}
}

// TestSuppressionsInventory lists directives with their reasons.
func TestSuppressionsInventory(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "go.mod"), "module suppinv\n\ngo 1.22\n")
	mustWrite(t, filepath.Join(dir, "internal", "node", "a.go"), `package node

import "time"

// Stamp is suppressed with a recorded reason.
func Stamp() int64 {
	//dcslint:ignore determinism operator-facing log timestamp, never hashed
	return time.Now().UnixNano()
}
`)
	cmd := exec.Command(bin, "-suppressions", "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("-suppressions: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "[determinism]") || !strings.Contains(s, "operator-facing log timestamp") {
		t.Errorf("inventory missing directive details:\n%s", s)
	}
	if !strings.Contains(s, "1 suppression(s), 0 malformed") {
		t.Errorf("inventory missing summary:\n%s", s)
	}
}

// TestBaselineGate writes a baseline, passes while counts hold, and
// fails when a new finding appears.
func TestBaselineGate(t *testing.T) {
	bin := buildTool(t)
	dir := writeViolatingModule(t)
	base := filepath.Join(dir, ".dcslint-baseline.json")

	write := exec.Command(bin, "-baseline", base, "-write-baseline", "./...")
	write.Dir = dir
	if out, err := write.CombinedOutput(); err != nil {
		t.Fatalf("-write-baseline: %v\n%s", err, out)
	}

	check := exec.Command(bin, "-baseline", base, "./...")
	check.Dir = dir
	if out, err := check.CombinedOutput(); err != nil {
		t.Fatalf("baseline check should pass at recorded counts: %v\n%s", err, out)
	}

	mustWrite(t, filepath.Join(dir, "internal", "node", "worse.go"), `package node

import "time"

// Since adds a second determinism finding above the baseline.
func Since(s time.Time) time.Duration { return time.Since(s) }
`)
	regress := exec.Command(bin, "-baseline", base, "./...")
	regress.Dir = dir
	out, err := regress.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("baseline regression should exit 1, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "findings rose") {
		t.Errorf("missing regression message:\n%s", out)
	}
}
