package analyzers

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// JournalPairAnalyzer machine-checks the journaled-undo idiom the whole
// incremental stack is built on (core's moveJournal, floorplan.PackDiff,
// anneal's pending bookkeeping):
//
//  1. every journal/record container — a struct holding a field whose name
//     marks it as a journal (journal, pending, undo, log, record(s),
//     history, diff(s), patches) — must come with rollback-family handling
//     (a Rollback/Revert/Undo/Commit/Reset/Settle method on the container
//     or on the record element type). Appending records that nothing can
//     roll back is exactly how an unpaired mutation escapes a rejected
//     move;
//  2. switches over a record-kind enum (a defined integer type named
//     *Op/*Kind/*Tag with a package-level const block) that have no
//     default clause must list every non-sentinel constant — a rollback
//     switch silently skipping a newly added record kind corrupts state
//     without a diagnostic.
//
// Suppress with //lint:journal <reason> (container check) or
// //lint:partialswitch <reason> (exhaustiveness check).
var JournalPairAnalyzer = &Analyzer{
	Name: "journalpair",
	Doc:  "journal/record containers must have rollback-family handling; record-kind switches must be exhaustive",
	Run:  runJournalPair,
}

var journalFieldRE = regexp.MustCompile(`(?i)^(journal|pending|undo(log)?|oplog|records?|history|diffs?|patches)$`)
var rollbackMethodRE = regexp.MustCompile(`(?i)(rollback|revert|undo|commit|reset|settle|drop)`)
var kindEnumRE = regexp.MustCompile(`(?i)(op|kind|tag)$`)
var sentinelConstRE = regexp.MustCompile(`(?i)(^(num|max|invalid|sentinel)|(count|sentinel|end)$)`)

func runJournalPair(pass *Pass) error {
	checkJournalContainers(pass)
	checkKindSwitches(pass)
	return nil
}

// checkJournalContainers scans package-level struct types for journal
// fields and requires rollback-family handling in reach of each one.
func checkJournalContainers(pass *Pass) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !journalFieldRE.MatchString(f.Name()) {
				continue
			}
			// A journal field must be a mutation log: a slice of records,
			// or a (pointer to) record struct. Plain counters/strings named
			// "history" etc. are not journals.
			elem := journalElemType(f.Type())
			if elem == nil {
				continue
			}
			if hasRollbackFamilyMethod(named) || hasRollbackFamilyMethod(elem) {
				continue
			}
			pass.Reportf(f.Pos(), "journal",
				"journal field %s.%s has no rollback-family handling (no Rollback/Revert/Undo/Commit/Reset method on %s or %s)%s",
				name, f.Name(), name, elem.Obj().Name(), suppressKey("journal"))
		}
	}
}

// journalElemType returns the defined record type a journal field holds:
// the element of a slice (through one pointer) or the pointee of a
// pointer-to-struct field. Returns nil for field types that cannot carry
// journal records (ints, strings, maps, funcs).
func journalElemType(t types.Type) *types.Named {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		e := u.Elem()
		if p, ok := e.Underlying().(*types.Pointer); ok {
			e = p.Elem()
		}
		if n, ok := e.(*types.Named); ok {
			if _, isStruct := n.Underlying().(*types.Struct); isStruct {
				return n
			}
		}
	case *types.Pointer:
		if n, ok := u.Elem().(*types.Named); ok {
			if _, isStruct := n.Underlying().(*types.Struct); isStruct {
				return n
			}
		}
	}
	return nil
}

// hasRollbackFamilyMethod reports whether the type (or its pointer) has a
// method whose name marks it as rollback handling. Methods defined in
// other packages count (floorplan.PackDiff's Rollback pairs core's
// packDiffs journal).
func hasRollbackFamilyMethod(n *types.Named) bool {
	if n == nil {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(n))
	for i := 0; i < ms.Len(); i++ {
		if rollbackMethodRE.MatchString(ms.At(i).Obj().Name()) {
			return true
		}
	}
	return false
}

// checkKindSwitches enforces exhaustiveness of default-less switches over
// record-kind enums defined in this package.
func checkKindSwitches(pass *Pass) {
	enums := map[*types.Named][]*types.Const{}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || !kindEnumRE.MatchString(name) {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		b, ok := named.Underlying().(*types.Basic)
		if !ok || b.Info()&types.IsInteger == 0 {
			continue
		}
		var consts []*types.Const
		for _, cn := range scope.Names() {
			c, ok := scope.Lookup(cn).(*types.Const)
			if ok && c.Type() == named && !sentinelConstRE.MatchString(c.Name()) {
				consts = append(consts, c)
			}
		}
		if len(consts) >= 2 {
			enums[named] = consts
		}
	}
	if len(enums) == 0 {
		return
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tagType := pass.TypesInfo.TypeOf(sw.Tag)
			named, ok := tagType.(*types.Named)
			if !ok {
				return true
			}
			consts, tracked := enums[named]
			if !tracked {
				return true
			}
			covered := map[types.Object]bool{}
			hasDefault := false
			for _, stmt := range sw.Body.List {
				cc := stmt.(*ast.CaseClause)
				if cc.List == nil {
					hasDefault = true
					continue
				}
				for _, e := range cc.List {
					ast.Inspect(e, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok {
								covered[c] = true
							}
						}
						return true
					})
				}
			}
			if hasDefault {
				return true
			}
			var missing []string
			for _, c := range consts {
				if !covered[c] {
					missing = append(missing, c.Name())
				}
			}
			if len(missing) > 0 {
				sort.Strings(missing)
				pass.Reportf(sw.Pos(), "partialswitch",
					"switch over %s has no default and misses %s: a record kind added without handling here silently corrupts rollback%s",
					named.Obj().Name(), strings.Join(missing, ", "), suppressKey("partialswitch"))
			}
			return true
		})
	}
}
