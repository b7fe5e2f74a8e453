// Package wallclock flags direct time.Now / time.Since calls in the
// engine packages that carry an injectable clock (internal/serve,
// internal/driver, internal/census, internal/place). A raw wall-clock
// read buried in engine code cannot be substituted in tests, so timing
// behavior (straggler cutoffs, time-to-upgrade histograms, reported
// wall times) becomes untestable and drifts from the deterministic
// e2e fixtures.
//
// The required idiom is the one internal/serve established: the
// config carries a `Clock func() time.Time` (nil means time.Now), the
// engine stores `now` once at construction, and every read goes
// through it — `now()` instead of time.Now(), `now().Sub(t0)` instead
// of time.Since(t0). Referencing the time.Now *value* as the default
// (`now = time.Now`) is not a call and is deliberately allowed: that
// line is the pattern's one legitimate appearance. A call site that
// must read the real clock can carry `//torusmesh:wallclock`.
package wallclock

import (
	"go/ast"
	"strings"

	"torusmesh/tools/analyze/internal/analysis"
	"torusmesh/tools/analyze/internal/analyzers/annotate"
)

var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc:  "flag direct time.Now/time.Since calls where the injectable-clock pattern is required",
	Run:  run,
}

// packages is the comma-separated list of package-path suffixes the
// analyzer applies to.
const packages = "internal/serve,internal/driver,internal/census,internal/place"

func run(pass *analysis.Pass) (interface{}, error) {
	if !applies(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || annotate.ImporteeName(pass, sel) != "time" {
				return true
			}
			name := sel.Sel.Name
			if name != "Now" && name != "Since" {
				return true
			}
			if annotate.InTestFile(pass, call.Pos()) || annotate.Has(pass, call.Pos(), "wallclock") {
				return true
			}
			fix := "now()"
			if name == "Since" {
				fix = "now().Sub(t)"
			}
			pass.Reportf(call.Pos(), "direct time.%s call in %s: use the injectable clock (%s) so tests can substitute it, or annotate //torusmesh:wallclock", name, pass.Pkg.Path(), fix)
			return true
		})
	}
	return nil, nil
}

func applies(path string) bool {
	for _, suf := range strings.Split(packages, ",") {
		if strings.HasSuffix(path, suf) {
			return true
		}
	}
	return false
}
