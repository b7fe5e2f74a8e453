// Package rngdiscipline forbids the global math/rand (and
// math/rand/v2) top-level functions — rand.Intn, rand.Shuffle,
// rand.Float64, rand.Seed, … — in production code. Those draw from a
// shared, runtime-seeded source: any engine touching it produces a
// different RNG stream per process and per interleaving, which would
// destroy the anneal engine's bit-for-bit reproducibility (two
// searches with equal configs, seed included, must produce identical
// artifacts).
//
// The only sanctioned randomness is an explicitly seeded instance,
// `rand.New(rand.NewSource(seed))` (or v2's rand.New(rand.NewPCG(…))),
// threaded to where it is used — exactly how place.annealFront derives
// one stream per seed index. Constructor references (New, NewSource,
// NewZipf, NewPCG, NewChaCha8) and type names are therefore allowed; a
// deliberate exception can carry `//torusmesh:rng`.
package rngdiscipline

import (
	"go/ast"
	"go/types"

	"torusmesh/tools/analyze/internal/analysis"
	"torusmesh/tools/analyze/internal/analyzers/annotate"
)

var Analyzer = &analysis.Analyzer{
	Name: "rngdiscipline",
	Doc:  "forbid global math/rand top-level functions; only seeded rand.New(rand.NewSource(…)) instances are reproducible",
	Run:  run,
}

var allowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2 source constructors.
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch annotate.ImporteeName(pass, sel) {
			case "math/rand", "math/rand/v2":
			default:
				return true
			}
			if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !isFunc {
				return true // type or const reference, not a draw
			}
			if allowed[sel.Sel.Name] {
				return true
			}
			if annotate.InTestFile(pass, sel.Pos()) || annotate.Has(pass, sel.Pos(), "rng") {
				return true
			}
			pass.Reportf(sel.Pos(), "global rand.%s draws from the shared runtime-seeded source and is not reproducible; use a seeded rand.New(rand.NewSource(…)) instance (or annotate //torusmesh:rng)", sel.Sel.Name)
			return true
		})
	}
	return nil, nil
}
