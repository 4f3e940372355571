// Package linttest loads a fixture package from a testdata directory,
// type-checks it against the standard library (source importer, so no
// prebuilt export data is needed), runs one repolint analyzer over it, and
// compares the reported diagnostics against // want "regexp" comments on
// the offending lines.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// Run loads every .go file under dir as one package whose import path is
// pkgpath, runs a, and asserts that the diagnostics match the fixture's
// // want comments. A line with no want comment must produce no diagnostic;
// every want regexp must be matched by a diagnostic on its line.
//
// The fixture's package path matters: repolint analyzers scope themselves
// by import-path elements (e.g. detmap only fires in result-affecting
// packages), so fixtures opt in by naming their directory after a policed
// element ("sim", "netsim") or opt out with a neutral name ("cold").
func Run(t *testing.T, dir, pkgpath string, a *lint.Analyzer) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("linttest: parse %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("linttest: no .go files in %s", dir)
	}
	diags, err := lint.Check(fset, pkgpath, files, importer.ForCompiler(fset, "source", nil), []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("linttest: type-check %s: %v", pkgpath, err)
	}

	type key struct {
		file string
		line int
	}
	got := make(map[key][]string)
	for _, d := range diags {
		p := fset.Position(d.Pos)
		k := key{filepath.Base(p.Filename), p.Line}
		got[k] = append(got[k], d.Message)
	}

	matched := make(map[key][]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants := parseWants(t, c.Text)
				if len(wants) == 0 {
					continue
				}
				p := fset.Position(c.Pos())
				k := key{filepath.Base(p.Filename), p.Line}
				for _, w := range wants {
					re, err := regexp.Compile(w)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", k.file, k.line, w, err)
					}
					found := false
					for i, msg := range got[k] {
						if re.MatchString(msg) {
							found = true
							for len(matched[k]) <= i {
								matched[k] = append(matched[k], false)
							}
							matched[k][i] = true
							break
						}
					}
					if !found {
						t.Errorf("%s:%d: no diagnostic matching want %q (got %v)", k.file, k.line, w, got[k])
					}
				}
			}
		}
	}
	// Every diagnostic must have been demanded by a want on its line.
	keys := make([]key, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for i, msg := range got[k] {
			if len(matched[k]) <= i || !matched[k][i] {
				t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, msg)
			}
		}
	}
}

// wantRe extracts the quoted regexps of a want marker; both "..." (with
// backslash escapes) and `...` forms are accepted, as in analysistest.
var wantRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// parseWants finds a want marker anywhere in the comment — either the
// whole comment is "// want ..." or it trails another comment's text, as
// in directive fixtures ("//lint:ignore detmap // want `...`").
func parseWants(t *testing.T, comment string) []string {
	t.Helper()
	text := strings.TrimPrefix(comment, "//")
	if i := strings.Index(text, "// want "); i >= 0 {
		text = text[i+len("// "):]
	}
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "want ") {
		return nil
	}
	var out []string
	for _, m := range wantRe.FindAllStringSubmatch(text[len("want "):], -1) {
		s := m[2]
		if m[1] != "" || m[2] == "" {
			var err error
			s, err = unescape(m[1])
			if err != nil {
				t.Fatalf("bad want string %q: %v", m[1], err)
			}
		}
		out = append(out, s)
	}
	return out
}

func unescape(s string) (string, error) {
	// The only escapes fixtures need are \" and \\.
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			if i >= len(s) {
				return "", fmt.Errorf("trailing backslash")
			}
		}
		b.WriteByte(s[i])
	}
	return b.String(), nil
}
