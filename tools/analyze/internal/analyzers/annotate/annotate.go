// Package annotate resolves the repo's //torusmesh:* analyzer
// annotations — the deliberate, reviewable escape hatches of the
// static-analysis suite. An annotation suppresses a diagnostic only
// when it sits on the flagged line itself or on the line directly
// above it, so every suppression is visible right at the site it
// excuses.
package annotate

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"torusmesh/tools/analyze/internal/analysis"
)

// Has reports whether a comment containing "torusmesh:<tag>" is
// attached to pos: same line, or the line immediately above.
func Has(pass *analysis.Pass, pos token.Pos, tag string) bool {
	file := FileOf(pass, pos)
	if file == nil {
		return false
	}
	want := "torusmesh:" + tag
	line := pass.Fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, want) {
				continue
			}
			cl := pass.Fset.Position(c.Pos()).Line
			if cl == line || cl == line-1 {
				return true
			}
		}
	}
	return false
}

// FileOf returns the syntax file of the pass containing pos, or nil.
func FileOf(pass *analysis.Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// InTestFile reports whether pos lies in a _test.go file. The suite
// checks production invariants; tests legitimately use fake clocks,
// ad-hoc printing and throwaway randomness.
func InTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// ImporteeName resolves a selector expression's qualifier to the
// imported package path when the expression is pkg.Name, else "".
func ImporteeName(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}
