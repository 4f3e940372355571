package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestEndToEnd builds the repolint binary and runs it over the module in
// testdata/mod, which holds one finding per analyzer, globalrand in an
// in-package and in an external test, a valid suppression, a malformed
// directive and a cold package. The -json output must match
// testdata/findings.json byte for byte; the text output must say the same.
// A clean pattern exits 0 with "[]", and a package that fails to
// type-check (testdata/broken) exits 2.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs the go command")
	}
	bin := filepath.Join(t.TempDir(), "repolint")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(dir string, args ...string) ([]byte, int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = filepath.Join("testdata", dir)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("repolint %v: %v", args, err)
		}
		if stderr.Len() > 0 {
			t.Logf("repolint %v stderr:\n%s", args, stderr.String())
		}
		return out, cmd.ProcessState.ExitCode()
	}

	want, err := os.ReadFile(filepath.Join("testdata", "findings.json"))
	if err != nil {
		t.Fatal(err)
	}
	out, code := run("mod", "-json", "./...")
	if code != 1 {
		t.Errorf("-json ./...: exit %d, want 1", code)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("-json output differs from testdata/findings.json:\n%s", out)
	}

	var findings []Finding
	if err := json.Unmarshal(want, &findings); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, f := range findings {
		fmt.Fprintf(&text, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	fmt.Fprintf(&text, "repolint: %d finding(s)\n", len(findings))
	out, code = run("mod", "./...")
	if code != 1 || string(out) != text.String() {
		t.Errorf("text mode: exit %d, output:\n%s\nwant exit 1, output:\n%s", code, out, text.String())
	}

	out, code = run("mod", "-json", "./cold/...")
	if code != 0 || string(out) != "[]\n" {
		t.Errorf("clean package: exit %d, output %q; want exit 0, \"[]\\n\"", code, out)
	}

	if _, code = run("broken", "./..."); code != 2 {
		t.Errorf("package that fails to type-check: exit %d, want 2", code)
	}
}
