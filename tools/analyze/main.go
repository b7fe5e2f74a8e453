// Command torusmesh-analyze is the repo's static-analysis gate: five
// analyzers that machine-check the determinism, spec-token and metrics
// invariants every engine's bit-for-bit guarantee rests on. From the
// repo root,
//
//	go build -C tools/analyze -o /tmp/torusmesh-analyze .
//	/tmp/torusmesh-analyze ./...
//
// loads the named packages (default ./...) with `go list -deps -export
// -json`, parses and type-checks every main-module package from
// source, resolves its imports from the compiler's export data, and
// prints each diagnostic as a sorted `file:line:col: message` line.
// It exits 1 if there is any diagnostic and 2 if any package fails to
// list, parse or type-check, so a load failure never passes as clean.
// Test files are not loaded: every analyzer ignores _test.go
// positions. See ARCHITECTURE.md, "Static analysis" for what each
// analyzer enforces and the //torusmesh:* annotation escape hatches.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"torusmesh/tools/analyze/internal/analysis"
	"torusmesh/tools/analyze/internal/analyzers/detmaprange"
	"torusmesh/tools/analyze/internal/analyzers/metricname"
	"torusmesh/tools/analyze/internal/analyzers/rngdiscipline"
	"torusmesh/tools/analyze/internal/analyzers/specdrift"
	"torusmesh/tools/analyze/internal/analyzers/wallclock"
)

var analyzers = []*analysis.Analyzer{
	detmaprange.Analyzer,
	wallclock.Analyzer,
	rngdiscipline.Analyzer,
	specdrift.Analyzer,
	metricname.Analyzer,
}

// listedPackage is the part of `go list -json` output the driver reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	ImportMap  map[string]string
	DepOnly    bool
	Module     *struct{ Main bool }
}

type finding struct {
	pos token.Position
	msg string
}

func main() {
	findings, err := analyze(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "torusmesh-analyze: %v\n", err)
		os.Exit(2)
	}
	wd, _ := os.Getwd() // without it, findings keep absolute paths
	for _, f := range findings {
		name := f.pos.Filename
		if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Printf("%s:%d:%d: %s\n", name, f.pos.Line, f.pos.Column, f.msg)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// analyze runs every analyzer over the main-module packages matching
// patterns and returns the findings sorted by position.
func analyze(patterns []string) ([]finding, error) {
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			return nil, fmt.Errorf("usage: torusmesh-analyze [packages]; flags are not accepted (got %s)", p)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	var findings []finding
	checked := 0
	for _, p := range pkgs {
		if p.DepOnly || p.Module == nil || !p.Module.Main {
			continue
		}
		diags, err := check(fset, gc, p)
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			findings = append(findings, finding{fset.Position(d.Pos), d.Message})
		}
		checked++
	}
	if checked == 0 {
		return nil, fmt.Errorf("no main-module packages match %s", strings.Join(patterns, " "))
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.msg < b.msg
	})
	return findings, nil
}

// goList runs `go list -deps -export -json` in the current directory,
// which also builds the export data of every listed package.
func goList(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,Export,ImportMap,DepOnly,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w\n%s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// check parses and type-checks one package from source, resolving its
// imports through gc as the package's ImportMap directs, and runs
// every analyzer over it.
func check(fset *token.FileSet, gc types.Importer, p listedPackage) ([]analysis.Diagnostic, error) {
	if len(p.CgoFiles) > 0 {
		return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := p.ImportMap[path]; ok {
				path = mapped
			}
			return gc.Import(path)
		}),
	}
	info := analysis.NewInfo()
	pkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
	}
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		d, err := analysis.Run(a, fset, files, pkg, info)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.ImportPath, err)
		}
		diags = append(diags, d...)
	}
	return diags, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
