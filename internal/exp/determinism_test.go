package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites the quick-budget report fixtures in testdata/quick/. Only
// legitimate when an artifact's numbers are meant to change.
var update = flag.Bool("update", false, "rewrite the quick-budget report fixtures in testdata/quick/")

// TestExperimentDeterminism runs every registered experiment twice
// in-process at quick fidelity and asserts the two reports are
// byte-identical — both the rendered text and the full structured result.
// This is a cheap determinism smoke independent of the golden fixtures: a
// range over an unsorted map, a wall-clock read, or a draw from global
// math/rand anywhere in an experiment's path shows up here as a diff
// between two runs in the same process (Go randomizes map iteration per
// range statement, so same-process repeats do diverge).
//
// The first run is also held to testdata/quick/<id>.txt: the rendered report
// followed by the SHA-256 of its JSON encoding, so no number of the
// reproduction moves unnoticed. On a mismatch the captured fixture is
// written next to it as got-<id>.txt (gitignored) for CI to upload.
func TestExperimentDeterminism(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			run := func() (string, []byte) {
				cfg := QuickRunConfig()
				rep, err := e.Run(cfg)
				if err != nil {
					t.Fatalf("experiment %s: %v", e.ID, err)
				}
				structured, err := json.Marshal(rep)
				if err != nil {
					t.Fatalf("marshal report: %v", err)
				}
				return rep.String(), structured
			}
			text1, js1 := run()
			checkQuickFixture(t, e.ID, fmt.Sprintf("%ssha256 %x\n", text1, sha256.Sum256(js1)))
			text2, js2 := run()
			if text1 != text2 {
				t.Errorf("experiment %s: rendered report differs between two in-process runs:\n--- first ---\n%s\n--- second ---\n%s", e.ID, text1, text2)
			}
			if !bytes.Equal(js1, js2) {
				t.Errorf("experiment %s: structured report differs between two in-process runs (first %d bytes vs %d bytes)", e.ID, len(js1), len(js2))
			}
		})
	}
}

// checkQuickFixture compares got with testdata/quick/<id>.txt, or rewrites
// the fixture under -update.
func checkQuickFixture(t *testing.T, id, got string) {
	t.Helper()
	dir := filepath.Join("testdata", "quick")
	path := filepath.Join(dir, id+".txt")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to record): %v", err)
	}
	if got == string(want) {
		return
	}
	gotPath := filepath.Join(dir, "got-"+id+".txt")
	if err := os.WriteFile(gotPath, []byte(got), 0o644); err != nil {
		t.Errorf("experiment %s differs from %s (and writing %s failed: %v)", id, path, gotPath, err)
		return
	}
	t.Errorf("experiment %s differs from %s; captured output written to %s:\n--- want ---\n%s--- got ---\n%s", id, path, gotPath, want, got)
}
