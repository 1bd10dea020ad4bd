// Command errgate is a zero-dependency ignored-error checker for the
// calls this codebase must never silently drop. A full errcheck runs in
// CI's lint job via golangci-lint; errgate covers the local tier-1 gate
// (ci.sh) with nothing but the standard library, flagging any bare
// expression-statement call to a curated list of error-returning methods
// — the ones whose ignored errors have already caused or nearly caused
// silent log corruption (a dropped Seek error was exactly the bug that
// let ReleaseStreaming replay from a stale offset).
//
// Beyond bare expression statements it also flags the success-only test
//
//	if err := f(); err == nil { ... }   // no else branch
//
// for the same watched names: err's scope ends with the if, so the
// failure path is dead — the exact shape that swallowed TruncateLog
// errors in both the RLVM manager and the timewarp scheduler, leaving
// their cursors describing a log that was never cut.
//
// Two more shapes, added with the group-commit batching work:
//
//	_ = x.Flush()                        // blank-discarded watched call
//	select { case ch <- v: default: }    // non-blocking send, empty default
//
// Blank assignment is just the bare-call drop with a fig leaf. The
// empty-default send is the channel-level analogue: batching paths push
// records through channels, and a full channel with an empty default
// silently drops the value — the software version of a FIFO overrun,
// except nothing even increments a loss counter.
//
// One shape is flagged for any call, watched or not:
//
//	if _, err := f(); err == nil {
//		_, err = g()                     // never read again
//	} else if err != nil { ... }
//
// an err declared in an if/for/switch init, reassigned in the statement's
// body and never read before its scope ends. That is how the tail-mirror
// rewrite dropped a failed body write and renamed the short file over the
// good mirror: the assignment looks handled, but nothing can observe it.
//
// Generated files (the standard "// Code generated ... DO NOT EDIT."
// header before the package clause) are exempt: merge tables and other
// emitted code answer to their generator, not to this gate.
//
// Usage:
//
//	errgate [dir]
//
// A finding can be suppressed with a trailing "//errgate:ok" comment on
// the same line, for the rare call sites where discarding the error (or
// the send) is the intent (document why next to it).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// watched are method/function names whose error results must always be
// consumed. Names, not types: a stdlib-only checker has no type
// information, so the list is curated to names that are unambiguous in
// this codebase and dangerous to ignore.
var watched = map[string]bool{
	"Seek":             true, // log reader repositioning: a dropped error replays the wrong window
	"Truncate":         true, // log truncation
	"TruncateLog":      true,
	"RewindLog":        true,
	"SetSourceSegment": true, // deferred-copy wiring
	"Flush":            true, // logship pump: a dropped error loses admissions
	"FlushAll":         true,
	"ReleaseShip":      true,
	"Compacted":        true, // compaction cut forwarded to the shipper: a dropped error leaves its sequence base behind the cut log
	"Connect":          true, // replica session start
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	fset := token.NewFileSet()
	bad := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && name != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, fd := range check(fset, f) {
			fmt.Printf("%s:%d: %s\n", fd.pos.Filename, fd.pos.Line, fd.msg)
			bad++
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "errgate:", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "errgate: %d ignored error(s)\n", bad)
		os.Exit(1)
	}
}

type finding struct {
	pos token.Position
	msg string
}

// generatedRe is the standard convention for machine-emitted Go files
// (golang.org/s/generatedcode): the line must match exactly and appear
// before the package clause.
var generatedRe = regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.$`)

// isGenerated reports whether f carries the generated-code header.
func isGenerated(fset *token.FileSet, f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if generatedRe.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

func check(fset *token.FileSet, f *ast.File) []finding {
	if isGenerated(fset, f) {
		return nil
	}
	// Lines carrying an errgate:ok suppression comment.
	ok := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "errgate:ok") {
				ok[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	var bad []finding
	flag := func(p token.Pos, format string, a ...any) {
		pos := fset.Position(p)
		if ok[pos.Line] {
			return
		}
		bad = append(bad, finding{pos: pos, msg: fmt.Sprintf(format, a...)})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			call, isCall := stmt.X.(*ast.CallExpr)
			if !isCall {
				return true
			}
			if name, isWatched := watchedCall(call); isWatched {
				flag(call.Pos(), "result of %s ignored", name)
			}
		case *ast.AssignStmt:
			name, isDiscard := blankDiscard(stmt)
			if isDiscard {
				flag(stmt.Pos(), "result of %s discarded via blank identifier", name)
			}
		case *ast.IfStmt:
			name, isSwallow := successOnlyTest(stmt)
			if isSwallow {
				flag(stmt.Pos(), "%s tested only for success; failure path silently dropped", name)
			}
			for _, a := range deadErrAssigns(stmt, stmt.Init, stmt.Body, stmt.Else) {
				flag(a.Pos(), "err declared in the if init is reassigned here and never read before its scope ends")
			}
		case *ast.ForStmt:
			for _, a := range deadErrAssigns(stmt, stmt.Init, stmt.Body) {
				flag(a.Pos(), "err declared in the for init is reassigned here and never read before its scope ends")
			}
		case *ast.SwitchStmt:
			for _, a := range deadErrAssigns(stmt, stmt.Init, stmt.Body) {
				flag(a.Pos(), "err declared in the switch init is reassigned here and never read before its scope ends")
			}
		case *ast.TypeSwitchStmt:
			for _, a := range deadErrAssigns(stmt, stmt.Init, stmt.Body) {
				flag(a.Pos(), "err declared in the switch init is reassigned here and never read before its scope ends")
			}
		case *ast.SelectStmt:
			send, isDrop := droppedSend(stmt)
			if isDrop {
				flag(send.Pos(), "non-blocking send with empty default: value silently dropped when channel is full")
			}
		}
		return true
	})
	return bad
}

// blankDiscard matches `_ = f()` for watched f: the same dropped error
// as a bare expression statement, dressed up as deliberate.
func blankDiscard(stmt *ast.AssignStmt) (string, bool) {
	if stmt.Tok != token.ASSIGN || len(stmt.Lhs) != 1 || len(stmt.Rhs) != 1 {
		return "", false
	}
	if !isIdentNamed(stmt.Lhs[0], "_") {
		return "", false
	}
	call, isCall := stmt.Rhs[0].(*ast.CallExpr)
	if !isCall {
		return "", false
	}
	return watchedCall(call)
}

// droppedSend matches a select containing a channel send alongside an
// empty default clause: when the channel is full the default fires and
// the value vanishes. Sites where that is the intent (ack coalescing, a
// drop policy handled after the select) carry an errgate:ok comment on
// the send's line.
func droppedSend(stmt *ast.SelectStmt) (*ast.SendStmt, bool) {
	var send *ast.SendStmt
	emptyDefault := false
	for _, s := range stmt.Body.List {
		clause, isComm := s.(*ast.CommClause)
		if !isComm {
			continue
		}
		if clause.Comm == nil {
			if len(clause.Body) == 0 {
				emptyDefault = true
			}
			continue
		}
		if sd, isSend := clause.Comm.(*ast.SendStmt); isSend && send == nil {
			send = sd
		}
	}
	return send, send != nil && emptyDefault
}

// watchedCall reports whether call targets a watched name.
func watchedCall(call *ast.CallExpr) (string, bool) {
	var name string
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	case *ast.Ident:
		name = fn.Name
	default:
		return "", false
	}
	return name, watched[name]
}

// successOnlyTest matches `if err := f(); err == nil { ... }` with no
// else branch, for watched f: the error variable's scope ends with the
// if, so the failure can never be observed.
func successOnlyTest(stmt *ast.IfStmt) (string, bool) {
	if stmt.Else != nil || stmt.Init == nil {
		return "", false
	}
	assign, isAssign := stmt.Init.(*ast.AssignStmt)
	if !isAssign || assign.Tok != token.DEFINE || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return "", false
	}
	errIdent, isIdent := assign.Lhs[0].(*ast.Ident)
	if !isIdent {
		return "", false
	}
	call, isCall := assign.Rhs[0].(*ast.CallExpr)
	if !isCall {
		return "", false
	}
	name, isWatched := watchedCall(call)
	if !isWatched {
		return "", false
	}
	cond, isCmp := stmt.Cond.(*ast.BinaryExpr)
	if !isCmp || cond.Op != token.EQL {
		return "", false
	}
	if !(isIdentNamed(cond.X, errIdent.Name) && isIdentNamed(cond.Y, "nil") ||
		isIdentNamed(cond.X, "nil") && isIdentNamed(cond.Y, errIdent.Name)) {
		return "", false
	}
	// The negative-test idiom — if err := f(); err == nil { t.Fatal(...) }
	// — treats success as the failure; nothing is being swallowed.
	if bodyOnlyFails(stmt.Body) {
		return "", false
	}
	return name, true
}

// bodyOnlyFails reports whether every statement in the block aborts
// (t.Fatal/t.Error/panic and friends): the success branch of a negative
// test, not a success path doing real work.
func bodyOnlyFails(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	for _, s := range body.List {
		expr, isExpr := s.(*ast.ExprStmt)
		if !isExpr {
			return false
		}
		call, isCall := expr.X.(*ast.CallExpr)
		if !isCall {
			return false
		}
		var name string
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fn.Sel.Name
		case *ast.Ident:
			name = fn.Name
		default:
			return false
		}
		switch name {
		case "Fatal", "Fatalf", "Error", "Errorf", "Fail", "FailNow", "Skip", "Skipf", "panic":
		default:
			return false
		}
	}
	return true
}

func isIdentNamed(e ast.Expr, name string) bool {
	id, isIdent := e.(*ast.Ident)
	return isIdent && id.Name == name
}

// deadErrAssigns returns the plain assignments (`err = ...`) in bodies to
// the err init declares after which nothing can read err before scope —
// the if/for/switch owning init — ends. A read counts if it follows the
// assignment in an enclosing block, sits in the condition or branches of
// an if/switch whose own init holds the assignment, or anywhere in an
// enclosing loop (the back edge). Without type information the check is
// conservative: assignments inside function literals are not judged, and
// an err re-declared in between counts as a read.
func deadErrAssigns(scope, init ast.Stmt, bodies ...ast.Stmt) []*ast.AssignStmt {
	if !declaresErr(init) {
		return nil
	}
	var assigns []*ast.AssignStmt
	for _, body := range bodies {
		if body == nil {
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN && assignsErr(n) {
					assigns = append(assigns, n)
				}
			}
			return true
		})
	}
	if len(assigns) == 0 {
		return nil
	}
	parent := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(scope, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parent[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	var dead []*ast.AssignStmt
	for _, a := range assigns {
		if !readAfter(a, scope, parent) {
			dead = append(dead, a)
		}
	}
	return dead
}

// readAfter walks from a up to scope, reporting whether err may be read
// after a (see deadErrAssigns).
func readAfter(a *ast.AssignStmt, scope ast.Node, parent map[ast.Node]ast.Node) bool {
	child := ast.Node(a)
	for n := parent[child]; n != nil; child, n = n, parent[n] {
		read := false
		switch p := n.(type) {
		case *ast.BlockStmt:
			read = readAfterIn(p.List, child)
		case *ast.CaseClause:
			read = readAfterIn(p.Body, child)
		case *ast.CommClause:
			if child == p.Comm {
				read = readsErr(nodes(p.Body)...)
			} else {
				read = readAfterIn(p.Body, child)
			}
		case *ast.IfStmt:
			if child == p.Init {
				read = readsErr(p.Cond, p.Body, p.Else)
			} else if p != scope && declaresErr(p.Init) {
				return true // the assignment targets this shadowing err
			}
		case *ast.SwitchStmt:
			if child == p.Init {
				read = readsErr(p.Tag, p.Body)
			} else if p != scope && declaresErr(p.Init) {
				return true
			}
		case *ast.TypeSwitchStmt:
			if child == p.Init {
				read = readsErr(p.Assign, p.Body)
			} else if p != scope && declaresErr(p.Init) {
				return true
			}
		case *ast.ForStmt:
			if p != scope && declaresErr(p.Init) {
				return true
			}
			read = readsErr(p.Cond, p.Post, p.Body)
		case *ast.RangeStmt:
			read = readsErr(p.Body)
		}
		if read {
			return true
		}
		if n == scope {
			return false
		}
	}
	return true
}

// readAfterIn reports whether a statement after child in list reads err
// or, conservatively, whether err is re-declared before child (the
// assignment then targets that shadow).
func readAfterIn(list []ast.Stmt, child ast.Node) bool {
	for i, s := range list {
		if s == child {
			return readsErr(nodes(list[i+1:])...)
		}
		if declaresErr(s) {
			return true
		}
	}
	return false
}

// readsErr reports whether any of ns mentions err other than as the
// target of a plain assignment.
func readsErr(ns ...ast.Node) bool {
	found := false
	for _, n := range ns {
		if n == nil {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN {
					for _, l := range n.Lhs {
						found = found || !isIdentNamed(l, "err") && readsErr(l)
					}
					found = found || readsErr(nodes(n.Rhs)...)
					return false
				}
			case *ast.Ident:
				found = found || n.Name == "err"
			}
			return !found
		})
	}
	return found
}

// declaresErr reports whether s is `err := ...` or `var err ...`.
func declaresErr(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return s.Tok == token.DEFINE && assignsErr(s)
	case *ast.DeclStmt:
		if gd, isGen := s.Decl.(*ast.GenDecl); isGen && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if name.Name == "err" {
						return true
					}
				}
			}
		}
	}
	return false
}

func assignsErr(a *ast.AssignStmt) bool {
	for _, l := range a.Lhs {
		if isIdentNamed(l, "err") {
			return true
		}
	}
	return false
}

func nodes[T ast.Node](xs []T) []ast.Node {
	out := make([]ast.Node, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}
