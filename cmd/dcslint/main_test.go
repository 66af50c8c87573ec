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

// TestStandaloneCleanModule: a module with nothing to flag exits 0
// and prints nothing on stdout.
func TestStandaloneCleanModule(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "go.mod"), "module lintclean\n\ngo 1.22\n")
	mustWrite(t, filepath.Join(dir, "internal", "node", "ok.go"), `package node

// Height is deterministic: nothing for dcslint to flag.
func Height(parent uint64) uint64 { return parent + 1 }
`)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("dcslint on clean module: %v\nstdout: %s\nstderr: %s", err, &stdout, &stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("clean module printed findings:\n%s", &stdout)
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

// TestStandaloneCrossPackageFacts proves the concurrent driver
// analyzes in dependency order over the shared fact store.
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
// fails when a new finding appears — with the text report and with the
// -json report CI keeps, which must still parse when the gate fails.
func TestBaselineGate(t *testing.T) {
	bin := buildTool(t)
	for _, tc := range []struct {
		name  string
		flags []string
	}{
		{"text", nil},
		{"json", []string{"-json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeViolatingModule(t)
			base := filepath.Join(dir, ".dcslint-baseline.json")
			lint := func(extra ...string) *exec.Cmd {
				args := append([]string{"-baseline", base}, tc.flags...)
				args = append(args, extra...)
				cmd := exec.Command(bin, append(args, "./...")...)
				cmd.Dir = dir
				return cmd
			}

			if out, err := lint("-write-baseline").CombinedOutput(); err != nil {
				t.Fatalf("-write-baseline: %v\n%s", err, out)
			}
			if out, err := lint().CombinedOutput(); err != nil {
				t.Fatalf("baseline check should pass at recorded counts: %v\n%s", err, out)
			}

			mustWrite(t, filepath.Join(dir, "internal", "node", "worse.go"), `package node

import "time"

// Since adds a second determinism finding above the baseline.
func Since(s time.Time) time.Duration { return time.Since(s) }
`)
			regress := lint()
			var stdout, stderr bytes.Buffer
			regress.Stdout, regress.Stderr = &stdout, &stderr
			err := regress.Run()
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
				t.Fatalf("baseline regression should exit 1, got %v\nstdout: %s\nstderr: %s", err, &stdout, &stderr)
			}
			if !strings.Contains(stderr.String(), "findings rose") {
				t.Errorf("missing regression message:\n%s", &stderr)
			}
			if tc.name != "json" {
				return
			}
			var report map[string]map[string][]struct{ Posn, Message string }
			if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
				t.Fatalf("-json stdout is not the per-package report: %v\n%s", err, &stdout)
			}
			if got := report["vetsmoke/internal/node"]["determinism"]; len(got) != 2 {
				t.Errorf("report has %d determinism findings in vetsmoke/internal/node, want 2:\n%s", len(got), &stdout)
			}
		})
	}
}
