// Package analyzertest runs an analyzer over source fixtures and
// checks its diagnostics against `// want "regexp"` comments, the way
// golang.org/x/tools/go/analysis/analysistest does. Fixtures are
// parsed and type-checked with the standard library alone: the
// "source" importer compiles stdlib imports from GOROOT, and fixture
// packages import each other by their path under testdata/src.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"torusmesh/tools/analyze/internal/analysis"
)

// Run loads testdata/src/<pkgPath> for each given package path, runs
// the analyzer over it, and reports any mismatch between emitted
// diagnostics and the fixtures' // want expectations.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	ld := newLoader(filepath.Join(testdata, "src"))
	for _, path := range pkgPaths {
		pkg, err := ld.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		diags := ld.runPass(t, a, pkg)
		checkWants(t, ld.fset, path, pkg.files, diags)
	}
}

type fixturePkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

type loader struct {
	src    string
	fset   *token.FileSet
	stdlib types.Importer
	loaded map[string]*fixturePkg
}

func newLoader(src string) *loader {
	fset := token.NewFileSet()
	return &loader{
		src:    src,
		fset:   fset,
		stdlib: importer.ForCompiler(fset, "source", nil),
		loaded: map[string]*fixturePkg{},
	}
}

// Import resolves fixture-local package paths to testdata/src and
// everything else to the stdlib source importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(ld.src, path); isDir(dir) {
		fp, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return fp.pkg, nil
	}
	return ld.stdlib.Import(path)
}

func (ld *loader) load(path string) (*fixturePkg, error) {
	if fp, ok := ld.loaded[path]; ok {
		return fp, nil
	}
	dir := filepath.Join(ld.src, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	fp := &fixturePkg{pkg: pkg, info: info, files: files}
	ld.loaded[path] = fp
	return fp, nil
}

func (ld *loader) runPass(t *testing.T, a *analysis.Analyzer, fp *fixturePkg) []analysis.Diagnostic {
	t.Helper()
	diags, err := analysis.Run(a, ld.fset, fp.files, fp.pkg, fp.info)
	if err != nil {
		t.Fatalf("analyzer error: %v", err)
	}
	return diags
}

func isDir(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.IsDir()
}

// wantRE extracts the expectation list of a fixture line's trailing
// comment: one or more Go-quoted regexps after the word "want".
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func checkWants(t *testing.T, fset *token.FileSet, pkgPath string, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quoted(m[1]) {
					re, err := regexp.Compile(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, q, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	var unexpected []string
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			unexpected = append(unexpected, fmt.Sprintf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message))
		}
	}
	sort.Strings(unexpected)
	for _, u := range unexpected {
		t.Errorf("%s: %s", pkgPath, u)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none", pkgPath, w.file, w.line, w.re)
		}
	}
}

// quoted pulls the double-quoted strings out of a want clause.
func quoted(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			return out
		}
		rest := s[i:]
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return out
		}
		uq, err := strconv.Unquote(q)
		if err != nil {
			return out
		}
		out = append(out, uq)
		s = rest[len(q):]
	}
}
