package lint

import (
	"go/ast"
	"go/types"
)

// Hygiene enforces error discipline:
//
//   - error returns are never silently discarded in an expression
//     statement. Exempt: calls into package fmt (their errors are
//     conventionally ignored), methods on strings.Builder and
//     bytes.Buffer (documented to always return nil errors), and
//     deferred calls, whose error has nowhere to go — check the sticky
//     error explicitly instead,
//   - in command mains, the fmt exemption does not cover fmt.Fprint*
//     into a concrete buffered writer (e.g. *bufio.Writer): its write
//     errors are sticky and surface only at Flush, so either the
//     Fprint error or the final Flush error must be checked (the
//     lightenum fix from PR 1, generalized). Writes to *os.File
//     (os.Stdout/os.Stderr) and to interface-typed writers stay
//     exempt.
var Hygiene = &Analyzer{
	Name: "hygiene",
	Doc:  "error returns must not be discarded",
	Run:  runHygiene,
}

func runHygiene(m *Module) []Finding {
	var findings []Finding
	for _, pkg := range m.Packages {
		findings = append(findings, checkDiscardedErrors(pkg)...)
	}
	return findings
}

func checkDiscardedErrors(pkg *Package) []Finding {
	info := pkg.Info
	var findings []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if isFmtCall(info, call) {
				if pkg.Pkg.Name() != "main" || !isFallibleFprint(info, call) {
					return true
				}
				findings = append(findings, pkg.finding("hygiene", stmt, "error return of fmt.%s into a buffered writer is silently discarded (write errors surface only at Flush)", callName(call)))
				return true
			}
			if isInfallibleWriter(info, call) {
				return true
			}
			t := info.TypeOf(call)
			if t == nil || !lastIsError(t) {
				return true
			}
			findings = append(findings, pkg.finding("hygiene", stmt, "error return of %s is silently discarded", callName(call)))
			return true
		})
	}
	return findings
}

// isFallibleFprint reports whether the call is fmt.Fprint/Fprintf/
// Fprintln whose writer argument has a concrete non-*os.File type that
// is not documented-infallible — a buffered writer whose sticky error
// someone must eventually check.
func isFallibleFprint(info *types.Info, call *ast.CallExpr) bool {
	switch callName(call) {
	case "Fprint", "Fprintf", "Fprintln":
	default:
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	t := info.TypeOf(call.Args[0])
	if t == nil || types.IsInterface(t) {
		return false // interface-typed writer: concrete sink unknown
	}
	base := t
	if p, ok := base.Underlying().(*types.Pointer); ok {
		base = p.Elem()
	}
	named, ok := base.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return true // concrete unnamed writer: be strict
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	switch full {
	case "os.File", "strings.Builder", "bytes.Buffer":
		return false
	}
	return true
}

func isFmtCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[x].(*types.PkgName)
	return ok && pn.Imported().Path() == "fmt"
}

// isInfallibleWriter reports whether the call is a method on
// strings.Builder or bytes.Buffer, whose Write* methods are documented
// to always return a nil error.
func isInfallibleWriter(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	return full == "strings.Builder" || full == "bytes.Buffer"
}

// lastIsError reports whether the call's (possibly tuple) result ends in
// an error.
func lastIsError(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(tup.Len() - 1).Type()
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}
