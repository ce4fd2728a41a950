package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestFailedSweepWritesTelemetry pins docs/OBSERVABILITY.md's contract
// that -metrics and -trace are written on every exit path: a sweep that
// fails on an unknown benchmark still leaves both files behind.
func TestFailedSweepWritesTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command; skipped with -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sdambench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	metrics, trace := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	err := exec.Command(bin, "-refs", "2000", "-metrics", metrics, "-trace", trace, "nosuchbench").Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("sdambench nosuchbench: %v, want exit status 1", err)
	}
	for _, p := range []string{metrics, trace} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("failed sweep left no telemetry: %v", err)
		}
		if !json.Valid(data) {
			t.Errorf("%s is not valid JSON: %q", filepath.Base(p), data)
		}
	}
}
