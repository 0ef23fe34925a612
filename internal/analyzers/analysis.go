// Package analyzers is tscfplint's pass suite: static-analysis checks that
// encode this repository's hand-maintained invariants — bit-exact
// determinism in the incremental/anneal packages, journaled mutations with
// exact rollback, tolerance-based float comparison, context-aware
// cancellation, and no silently dropped write errors.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the passes read like standard vet
// checkers, but it is self-contained on the standard library: the container
// this repo builds in has no module proxy access, so vendoring x/tools is
// not an option. Packages are loaded by driving `go list -deps -export`
// and type-checking target sources against compiler export data (load.go).
//
// Findings are suppressed site-by-site with an annotation comment carrying
// a mandatory reason, on the flagged line or the line directly above:
//
//	//lint:<key> <reason>
//
// where <key> is analyzer-specific (besteffort, wallclock, rand, maporder,
// floateq, ctx, partialswitch, journal). A bare annotation without a
// reason does not suppress; the finding is re-reported with a hint. See
// docs/ARCHITECTURE.md "Static analysis".
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one named invariant check over a type-checked
// package. The shape mirrors x/tools go/analysis so passes port in either
// direction without restructuring.
type Analyzer struct {
	Name string // short lower-case identifier, used in output and -run
	Doc  string // one-paragraph description of the invariant
	Run  func(*Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags       []Diagnostic
	annotations map[annotKey][]annotation
}

type annotKey struct {
	file string
	line int
}

type annotation struct {
	key    string
	reason string
}

// annotRE matches the suppression comment form. The reason is mandatory;
// an empty one is recorded so the finding can carry a targeted hint.
var annotRE = regexp.MustCompile(`^//\s*lint:([a-z]+)\s*(.*)$`)

// newPass builds a Pass and indexes every //lint: annotation in the
// package by (file, line) so suppression lookups are O(1) per finding.
func newPass(a *Analyzer, pkg *Package) *Pass {
	p := &Pass{
		Analyzer:    a,
		Fset:        pkg.Fset,
		Files:       pkg.Files,
		Pkg:         pkg.Types,
		TypesInfo:   pkg.TypesInfo,
		annotations: make(map[annotKey][]annotation),
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := annotRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				k := annotKey{pos.Filename, pos.Line}
				p.annotations[k] = append(p.annotations[k], annotation{
					key:    m[1],
					reason: strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return p
}

// Reportf records a finding at pos unless a well-formed //lint:<key>
// annotation (with a non-empty reason) covers the position's line or the
// line above it. A reason-less annotation never suppresses: the finding is
// reported with a hint instead, so "annotate it" cannot degrade into a
// contentless mute.
func (p *Pass) Reportf(pos token.Pos, key string, format string, args ...any) {
	position := p.Fset.Position(pos)
	hint := ""
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, an := range p.annotations[annotKey{position.Filename, line}] {
			if an.key != key {
				continue
			}
			if an.reason != "" {
				return // suppressed
			}
			hint = fmt.Sprintf(" (//lint:%s must carry a reason to suppress)", key)
		}
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...) + hint,
	})
}

// suppressKey returns the standard trailer telling a reader how to
// annotate an intentional site.
func suppressKey(key string) string {
	return fmt.Sprintf("; annotate //lint:%s <reason> if intentional", key)
}

// Run applies every analyzer in as to every package in pkgs and returns
// all findings sorted by file, line, column, then analyzer name — a
// stable order so CI diffs and golden tests are reproducible.
func Run(as []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range as {
			pass := newPass(a, pkg)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
			out = append(out, pass.diags...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// All returns the full suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		JournalPairAnalyzer,
		FloatCompareAnalyzer,
		CtxFlowAnalyzer,
		ErrSinkAnalyzer,
	}
}

// ---- shared type/AST helpers used by several passes ----

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for builtins, conversions, and calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgLevelCall reports whether fn is a package-level function (not a
// method) of the package with import path pkgPath.
func isPkgLevelCall(fn *types.Func, pkgPath string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// recvNamed returns the defined type of a method's receiver (through one
// pointer), or nil for package-level functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// namedPath returns "pkgpath.TypeName" for a defined type, or "".
func namedPath(n *types.Named) string {
	if n == nil || n.Obj() == nil {
		return ""
	}
	if n.Obj().Pkg() == nil { // error type and other universe names
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && namedPath(n) == "context.Context"
}

// pkgPathMatches reports whether pkgPath equals pat or ends with "/"+pat —
// so "internal/core" matches both "repro/internal/core" and a test
// fixture's "fixture/internal/core".
func pkgPathMatches(pkgPath, pat string) bool {
	return pkgPath == pat || strings.HasSuffix(pkgPath, "/"+pat)
}

func pkgPathMatchesAny(pkgPath string, pats []string) bool {
	for _, pat := range pats {
		if pkgPathMatches(pkgPath, pat) {
			return true
		}
	}
	return false
}

// enclosingFuncName returns the name of the innermost enclosing function
// declaration of pos in file, or "".
func enclosingFuncName(file *ast.File, pos token.Pos) string {
	name := ""
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if fd, ok := n.(*ast.FuncDecl); ok {
			if fd.Pos() <= pos && pos < fd.End() {
				name = fd.Name.Name
			}
			return fd.Pos() <= pos && pos < fd.End()
		}
		return true
	})
	return name
}
