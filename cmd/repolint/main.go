// Command repolint runs the repository's determinism and hot-path lint
// suite (internal/lint): detmap, walltime, globalrand, hotalloc and
// lintdirective.
//
//	repolint ./...          # human-readable, exit 1 on findings
//	repolint -json ./...    # machine-readable [{file,line,col,analyzer,message}]
//
// It loads packages with one "go list -deps -test -export" and checks each
// matched package with its in-package tests, plus its external test
// package; imports are read from the export data the go command built.
// Exit status is 0 when clean, 1 on findings and 2 when a package fails to
// load or type-check. The -json mode exists so tooling can diff findings
// across commits.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// Finding is one diagnostic in -json output, sorted by (file, line, col,
// analyzer, message).
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// listedPackage is the part of "go list -json" output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	ForTest    string
	Match      []string
	Error      *struct{ Err string }
}

func run(args []string) int {
	fs := flag.NewFlagSet("repolint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repolint [-json] <packages>\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := check(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 2
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
		if len(findings) > 0 {
			fmt.Printf("repolint: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// check lists the packages matching patterns and runs the suite over each
// one's test variant ("p [p.test]", or p itself when it has no in-package
// tests) and its external test package ("p_test [p.test]"), the units go
// vet checks. File names are reported relative to the working directory
// when they lie under it.
func check(patterns []string) ([]Finding, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json", "-deps", "-test", "-export"}, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	byPath := make(map[string]*listedPackage)
	var roots []string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, errors.New(strings.TrimSpace(p.Error.Err))
		}
		byPath[p.ImportPath] = p
		if len(p.Match) > 0 && p.ForTest == "" {
			roots = append(roots, p.ImportPath)
		}
	}

	cwd, _ := os.Getwd()
	fset := token.NewFileSet()
	var findings []Finding
	for _, root := range roots {
		units := []*listedPackage{byPath[root]}
		if p := byPath[root+" ["+root+".test]"]; p != nil {
			units[0] = p
		}
		if p := byPath[root+"_test ["+root+".test]"]; p != nil {
			units = append(units, p)
		}
		for _, p := range units {
			diags, err := checkPackage(fset, p, byPath)
			if err != nil {
				return nil, err
			}
			for _, d := range diags {
				pos := fset.Position(d.Pos)
				file := pos.Filename
				if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = rel
				}
				findings = append(findings, Finding{file, pos.Line, pos.Column, d.Analyzer, d.Message})
			}
		}
	}
	return findings, nil
}

// checkPackage parses p and runs the suite over it, importing its
// dependencies from their export data.
func checkPackage(fset *token.FileSet, p *listedPackage, byPath map[string]*listedPackage) ([]lint.Diagnostic, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := p.ImportMap[path]; ok {
			path = mapped
		}
		dep := byPath[path]
		if dep == nil || dep.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(dep.Export)
	})
	path, _, _ := strings.Cut(p.ImportPath, " ")
	diags, err := lint.Check(fset, path, files, imp, lint.Analyzers)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
	}
	return diags, nil
}
