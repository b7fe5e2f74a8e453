// Package detmaprange flags `for … range` over a map whose loop body
// emits output — writes to an io.Writer or strings.Builder, fmt
// printing, or encoding/json encoding. Go randomizes map iteration
// order, so any bytes produced inside such a loop land in a different
// order on every run, which silently breaks the repo's bit-for-bit
// artifact, NDJSON-stream and Prometheus-exposition guarantees.
//
// The fix is the collect-sort-emit idiom the codebase already uses
// everywhere (cf. obs.Registry.sorted, experiments.sortedKeys): range
// the map into a slice, sort it, range the slice. A site that is
// genuinely order-insensitive (say, each iteration writes to its own
// file) can carry a `//torusmesh:sorted` annotation on the range
// statement or the line above it.
package detmaprange

import (
	"go/ast"
	"go/types"

	"torusmesh/tools/analyze/internal/analysis"
	"torusmesh/tools/analyze/internal/analyzers/annotate"
)

var Analyzer = &analysis.Analyzer{
	Name: "detmaprange",
	Doc:  "flag map iteration that emits output (map order is randomized; artifacts must be bit-for-bit)",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if annotate.InTestFile(pass, rng.Pos()) || annotate.Has(pass, rng.Pos(), "sorted") {
				return true
			}
			if emit := firstEmission(pass, rng.Body); emit != nil {
				pass.Reportf(rng.Pos(), "map iteration order is randomized but this loop emits output (%s); sort the keys first or annotate the loop //torusmesh:sorted", emit.desc)
			}
			return true
		})
	}
	return nil, nil
}

type emission struct{ desc string }

// firstEmission scans a map-range body (at any nesting depth) for a
// call that writes bytes somewhere order-sensitive.
func firstEmission(pass *analysis.Pass, body *ast.BlockStmt) *emission {
	var found *emission
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		// Package-level emitters: fmt.Fprint*/Print* and
		// encoding/json Marshal/Encode entry points.
		switch annotate.ImporteeName(pass, sel) {
		case "fmt":
			switch name {
			case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
				found = &emission{desc: "fmt." + name}
				return false
			}
			return true
		case "encoding/json":
			switch name {
			case "Marshal", "MarshalIndent":
				found = &emission{desc: "json." + name}
				return false
			}
			return true
		}
		// Method emitters: Write/WriteString/WriteByte/WriteRune on
		// writers and builders, Encode on stream encoders.
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
			if isMethodCall(pass, sel) {
				found = &emission{desc: "(" + typeName(pass, sel.X) + ")." + name}
				return false
			}
		}
		return true
	})
	return found
}

func isMethodCall(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.MethodVal
}

func typeName(pass *analysis.Pass, x ast.Expr) string {
	if tv, ok := pass.TypesInfo.Types[x]; ok {
		return tv.Type.String()
	}
	return "?"
}
