package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// layoutRow matches a row of README's layout table and captures the path in
// its first cell: "| `internal/sim` | ..." or "| `cmd/` | ...".
var layoutRow = regexp.MustCompile("^\\| `([a-z][a-z0-9_/]*)`")

// TestReadmeLayoutCoversEveryPackage holds README's layout table to
// `go list ./...`: every package of the module has a row naming it or a
// directory above it, and every row names a package or a directory of them.
func TestReadmeLayoutCoversEveryPackage(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, layout, ok := strings.Cut(string(readme), "\n## Layout\n")
	if !ok {
		t.Fatal("README.md has no \"## Layout\" section")
	}
	// The table is the section's first run of "|" lines.
	var rows []string
	table := false
	for _, line := range strings.Split(layout, "\n") {
		if !strings.HasPrefix(line, "|") {
			if table {
				break
			}
			continue
		}
		table = true
		if m := layoutRow.FindStringSubmatch(line); m != nil {
			rows = append(rows, strings.TrimSuffix(m[1], "/"))
		}
	}
	if len(rows) == 0 {
		t.Fatal("README.md's layout table has no rows")
	}

	goTool, err := exec.LookPath("go")
	if err != nil {
		goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	out, err := exec.Command(goTool, "list", "-f", "{{.Dir}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for _, dir := range strings.Fields(string(out)) {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		if rel != "." {
			pkgs = append(pkgs, filepath.ToSlash(rel))
		}
	}

	under := func(pkg, row string) bool { return pkg == row || strings.HasPrefix(pkg, row+"/") }
	for _, pkg := range pkgs {
		covered := false
		for _, row := range rows {
			covered = covered || under(pkg, row)
		}
		if !covered {
			t.Errorf("package %s has no row in README's layout table", pkg)
		}
	}
	for _, row := range rows {
		names := false
		for _, pkg := range pkgs {
			names = names || under(pkg, row)
		}
		if !names {
			t.Errorf("README's layout table has a row for %s, which holds no package", row)
		}
	}
}
