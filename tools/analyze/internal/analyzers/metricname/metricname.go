// Package metricname keeps the obs instrument namespace sane at
// compile time. Calls to the obs.Registry registration methods
// (Counter, Gauge, GaugeFunc, Histogram, and Describe's name argument)
// must pass a compile-time constant string matching the Prometheus
// metric-name grammar the exporter assumes, [a-z][a-z0-9_]*; a
// runtime-built name can collide, escape the exposition's sorted
// rendering, or register unbounded cardinality. Each name may be
// registered at most once per package — the get-or-create registry
// makes a second registration site a silent alias, which is almost
// always a copy-paste bug (a deliberate cross-registry reuse can carry
// `//torusmesh:metric-reuse`). A labeled family — the same name
// registered at several sites, each with its own label set, like
// placed_tier_served_total{tier=…} — is the one sanctioned shape of
// repetition, provided every site passes labels and the instrument
// kind agrees.
package metricname

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"

	"torusmesh/tools/analyze/internal/analysis"
	"torusmesh/tools/analyze/internal/analyzers/annotate"
)

var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc:  "obs instrument names must be constant [a-z][a-z0-9_]* strings, each registered at most once",
	Run:  run,
}

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// registering marks the methods that create an instrument; Describe
// only attaches help text and is exempt from the once-only rule.
var registering = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"GaugeFunc": true,
	"Histogram": true,
}

type site struct {
	pos     token.Pos
	method  string
	labeled bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	firstSite := map[string]site{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			method := sel.Sel.Name
			if !registering[method] && method != "Describe" {
				return true
			}
			if !isRegistryMethod(pass, sel) || annotate.InTestFile(pass, call.Pos()) {
				return true
			}
			arg := call.Args[0]
			tv, ok := pass.TypesInfo.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(arg.Pos(), "obs instrument name passed to %s must be a compile-time string constant so the exposition namespace is auditable", method)
				return true
			}
			name := constant.StringVal(tv.Value)
			if !nameRE.MatchString(name) {
				pass.Reportf(arg.Pos(), "obs instrument name %q does not match the Prometheus grammar [a-z][a-z0-9_]*", name)
				return true
			}
			if !registering[method] {
				return true
			}
			// Labels follow the fixed arguments: Counter/Gauge take
			// (name, labels...), GaugeFunc (name, fn, labels...),
			// Histogram (name, bounds, labels...).
			fixed := 1
			if method == "GaugeFunc" || method == "Histogram" {
				fixed = 2
			}
			cur := site{pos: call.Pos(), method: method, labeled: len(call.Args) > fixed}
			prev, dup := firstSite[name]
			if !dup {
				firstSite[name] = cur
				return true
			}
			if prev.pos == cur.pos || annotate.Has(pass, call.Pos(), "metric-reuse") {
				return true
			}
			switch {
			case prev.method != cur.method:
				pass.Reportf(call.Pos(), "obs instrument %q is registered as %s here but as %s at %s; one name must keep one kind", name, cur.method, prev.method, pass.Fset.Position(prev.pos))
			case !prev.labeled || !cur.labeled:
				pass.Reportf(call.Pos(), "obs instrument %q is registered more than once in this package (first at %s); register once and share the handle, use distinct labels at every site, or annotate //torusmesh:metric-reuse", name, pass.Fset.Position(prev.pos))
			}
			return true
		})
	}
	return nil, nil
}

// isRegistryMethod reports whether sel is a method selection on
// obs.Registry (any package named obs, so fixtures qualify too).
func isRegistryMethod(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	rt := s.Recv()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Name() == "obs"
}
