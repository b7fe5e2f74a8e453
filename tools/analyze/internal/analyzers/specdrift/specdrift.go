// Package specdrift guards the engine-compat spec token. In any
// package that declares a struct `Config` with a `Spec() string`
// method (today: internal/place), every Config field the engine reads
// must either be referenced inside Spec() — and therefore change the
// token — or carry an explicit `//torusmesh:nospec` annotation on its
// declaration stating that artifacts do not depend on it (Guest/Host
// are the pair identity, Clock is measurement-only).
//
// Without this check, adding a knob that alters search results but
// forgetting to fold it into Spec() silently poisons everything keyed
// on the token: census Merge would combine shards searched under
// different settings, resume journals would fold into incompatible
// searches, and the placed cache sidecar would serve stale fronts.
package specdrift

import (
	"go/ast"
	"go/types"
	"strings"

	"torusmesh/tools/analyze/internal/analysis"
	"torusmesh/tools/analyze/internal/analyzers/annotate"
)

var Analyzer = &analysis.Analyzer{
	Name: "specdrift",
	Doc:  "every Config field the engine reads must be referenced by Spec() or annotated //torusmesh:nospec",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	cfg := configType(pass)
	if cfg == nil {
		return nil, nil
	}
	spec := specMethod(pass, cfg)
	if spec == nil || spec.Body == nil {
		return nil, nil
	}
	fields := map[*types.Var]bool{} // fields of Config
	st, ok := cfg.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = true
	}
	inSpec := map[*types.Var]bool{} // fields referenced inside Spec()
	collectFieldReads(pass, spec.Body, fields, func(f *types.Var, _ *ast.SelectorExpr) {
		inSpec[f] = true
	})
	exempt := annotatedFields(pass, cfg)

	reported := map[*types.Var]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd == spec || fd.Body == nil {
				continue
			}
			collectFieldReads(pass, fd.Body, fields, func(fv *types.Var, sel *ast.SelectorExpr) {
				if inSpec[fv] || exempt[fv.Name()] || reported[fv] {
					return
				}
				if annotate.InTestFile(pass, sel.Pos()) {
					return
				}
				reported[fv] = true
				pass.Reportf(sel.Pos(), "%s.Config field %s is read by the engine but never referenced by Spec(): a knob outside the spec token silently poisons artifact compatibility; fold it into Spec() or annotate the field declaration //torusmesh:nospec", pass.Pkg.Name(), fv.Name())
			})
		}
	}
	return nil, nil
}

// configType finds a struct type named Config declared in this package.
func configType(pass *analysis.Pass) *types.Named {
	obj, ok := pass.Pkg.Scope().Lookup("Config").(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// specMethod finds the FuncDecl for Config's `Spec() string` method.
func specMethod(pass *analysis.Pass, cfg *types.Named) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Spec" || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			rt := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok && named.Obj() == cfg.Obj() {
				return fd
			}
		}
	}
	return nil
}

// collectFieldReads calls fn for every selector in body that resolves
// to one of the given struct fields.
func collectFieldReads(pass *analysis.Pass, body ast.Node, fields map[*types.Var]bool, fn func(*types.Var, *ast.SelectorExpr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		if fv, ok := s.Obj().(*types.Var); ok && fields[fv] {
			fn(fv, sel)
		}
		return true
	})
}

// annotatedFields returns the names of Config fields whose declaration
// carries //torusmesh:nospec in its doc or line comment.
func annotatedFields(pass *analysis.Pass, cfg *types.Named) map[string]bool {
	out := map[string]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != cfg.Obj().Name() {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !hasNospec(field.Doc) && !hasNospec(field.Comment) {
					continue
				}
				for _, name := range field.Names {
					out[name.Name] = true
				}
			}
			return false
		})
	}
	return out
}

func hasNospec(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.Contains(c.Text, "torusmesh:nospec") {
			return true
		}
	}
	return false
}
