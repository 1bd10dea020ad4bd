package lvm_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// watched are the calls whose error result must always be consumed: the
// ones whose dropped errors have caused, or nearly caused, silent log
// corruption. A dropped Seek error let ReleaseStreaming replay from a
// stale offset; a dropped TruncateLog error left RLVM's and timewarp's
// cursors describing a log that was never cut. Each name must resolve to
// a function some file of the module calls, so renaming or deleting one
// fails the test instead of leaving a silent gap.
var watched = []string{
	"(*lvm/internal/core.LogReader).Seek", // log reader repositioning: a dropped error replays the wrong window
	"(*lvm/internal/logcursor.MachineSource).Seek",
	"(*lvm/internal/core.LogReader).Truncate", // log truncation
	"(*lvm/internal/rlvm.Manager).Truncate",
	"(*lvm/internal/rvm.Manager).Truncate",
	"(*lvm/internal/vm.Kernel).TruncateLog",
	"(*lvm/internal/vm.Kernel).RewindLog",
	"(*lvm/internal/vm.Segment).SetSourceSegment", // deferred-copy wiring
	"(*lvm/internal/lvmd.TailFile).Flush",
	"(*lvm/internal/logship.Shipper).Flush", // logship pump: a dropped error loses admissions
	"(*lvm/internal/logship.Shipper).FlushAll",
	"(*lvm/internal/logship.Shipper).ReleaseShip",
	"(*lvm/internal/logship.Shipper).Compacted", // compaction cut: a dropped error leaves the shipper's sequence base behind the cut log
	"(lvm/internal/compact.Shipper).Compacted",
	"(*lvm/internal/logship.Replica).Connect", // replica session start
}

// finding is one dropped error.
type finding struct {
	pos token.Position
	msg string
}

// droppedErrors returns the dropped errors in one type-checked file.
// Calls to a watch function are flagged when their result is ignored
// (a bare call or `_ = f()`) or tested only for success:
//
//	if err := f(); err == nil { ... }   // no else branch
//
// err's scope ends with the if, so the failure path is dead; unless the
// body only fails (t.Fatal, panic and friends): a negative test treats
// success as the failure. Two shapes are flagged whatever the call:
//
//	select { case ch <- v: default: }   // non-blocking send, empty default
//
// which drops the value when the channel is full, the software version
// of a FIFO overrun; and an error variable declared in an if, for or
// switch init, reassigned in the statement's body and never read before
// its scope ends:
//
//	if _, err := f(); err == nil {
//		_, err = g()                     // never read again
//	} else if err != nil { ... }
//
// That is how the tail-mirror rewrite once renamed a short file over the
// good mirror. A trailing //errgate:ok comment on a finding's line
// suppresses it where dropping the error (or the send) is the intent;
// the comment should say why.
func droppedErrors(fset *token.FileSet, f *ast.File, info *types.Info, watch map[string]bool) []finding {
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
		if pos := fset.Position(p); !ok[pos.Line] {
			bad = append(bad, finding{pos, fmt.Sprintf(format, a...)})
		}
	}
	watchedCall := func(e ast.Expr) (string, bool) {
		name := callee(info, e)
		return name, watch[name]
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if name, w := watchedCall(s.X); w {
				flag(s.Pos(), "result of %s ignored", name)
			}
		case *ast.AssignStmt:
			if s.Tok == token.ASSIGN && len(s.Lhs) == 1 && len(s.Rhs) == 1 && isBlank(s.Lhs[0]) {
				if name, w := watchedCall(s.Rhs[0]); w {
					flag(s.Pos(), "result of %s discarded via blank identifier", name)
				}
			}
		case *ast.IfStmt:
			if init, isAssign := s.Init.(*ast.AssignStmt); isAssign && s.Else == nil && len(init.Rhs) == 1 {
				if name, w := watchedCall(init.Rhs[0]); w && testsOnlySuccess(info, init, s) {
					flag(s.Pos(), "%s tested only for success; failure path silently dropped", name)
				}
			}
			deadErrAssigns(info, flag, "if", s, s.Init, s.Body, s.Else)
		case *ast.ForStmt:
			deadErrAssigns(info, flag, "for", s, s.Init, s.Body)
		case *ast.SwitchStmt:
			deadErrAssigns(info, flag, "switch", s, s.Init, s.Body)
		case *ast.TypeSwitchStmt:
			deadErrAssigns(info, flag, "switch", s, s.Init, s.Body)
		case *ast.SelectStmt:
			var send *ast.SendStmt
			emptyDefault := false
			for _, c := range s.Body.List {
				c := c.(*ast.CommClause)
				if sd, isSend := c.Comm.(*ast.SendStmt); isSend && send == nil {
					send = sd
				}
				emptyDefault = emptyDefault || c.Comm == nil && len(c.Body) == 0
			}
			if send != nil && emptyDefault {
				flag(send.Pos(), "non-blocking send with empty default: value silently dropped when channel is full")
			}
		}
		return true
	})
	return bad
}

// callee names the function or method e calls, "" if e is no such call.
func callee(info *types.Info, e ast.Expr) string {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return ""
	}
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	}
	if fn, isFunc := info.Uses[id].(*types.Func); isFunc {
		return fn.Origin().FullName()
	}
	return ""
}

func isBlank(e ast.Expr) bool {
	id, isIdent := e.(*ast.Ident)
	return isIdent && id.Name == "_"
}

// testsOnlySuccess reports whether s is `if err := f(); err == nil`
// whose body does more than fail.
func testsOnlySuccess(info *types.Info, init *ast.AssignStmt, s *ast.IfStmt) bool {
	if init.Tok != token.DEFINE || len(init.Lhs) != 1 {
		return false
	}
	err := info.Defs[init.Lhs[0].(*ast.Ident)]
	cond, isCmp := s.Cond.(*ast.BinaryExpr)
	if err == nil || !isCmp || cond.Op != token.EQL {
		return false
	}
	is := func(e ast.Expr) bool { id, isIdent := e.(*ast.Ident); return isIdent && info.Uses[id] == err }
	if !(is(cond.X) && info.Types[cond.Y].IsNil() || info.Types[cond.X].IsNil() && is(cond.Y)) {
		return false
	}
	for _, st := range s.Body.List {
		x, isExpr := st.(*ast.ExprStmt)
		if !isExpr {
			return true
		}
		call, isCall := x.X.(*ast.CallExpr)
		if !isCall {
			return true
		}
		var name string
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fn.Sel.Name
		case *ast.Ident:
			name = fn.Name
		}
		switch name {
		case "Fatal", "Fatalf", "Error", "Errorf", "Fail", "FailNow", "Skip", "Skipf", "panic":
		default:
			return true
		}
	}
	return len(s.Body.List) == 0
}

// deadErrAssigns flags the plain assignments in bodies to an error
// variable init declares after which nothing can read it before scope,
// the if/for/switch owning init, ends. A read counts if it follows the
// assignment in an enclosing block, sits in the condition or branches of
// an if/switch whose own init holds the assignment, or anywhere in an
// enclosing loop (the back edge). Assignments inside function literals
// are not judged.
func deadErrAssigns(info *types.Info, flag func(token.Pos, string, ...any), kind string, scope, init ast.Stmt, bodies ...ast.Stmt) {
	decl, isAssign := init.(*ast.AssignStmt)
	if !isAssign || decl.Tok != token.DEFINE {
		return
	}
	for _, l := range decl.Lhs {
		v, isVar := info.Defs[l.(*ast.Ident)].(*types.Var)
		if !isVar || !types.Identical(v.Type(), types.Universe.Lookup("error").Type()) {
			continue
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
					for _, l := range n.Lhs {
						if id, isIdent := l.(*ast.Ident); isIdent && n.Tok == token.ASSIGN && info.Uses[id] == v {
							assigns = append(assigns, n)
							break
						}
					}
				}
				return true
			})
		}
		if len(assigns) == 0 {
			continue
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
		for _, a := range assigns {
			if !readAfter(info, v, a, scope, parent) {
				flag(a.Pos(), "%s declared in the %s init is reassigned here and never read before its scope ends", v.Name(), kind)
			}
		}
	}
}

// readAfter walks from a up to scope, reporting whether v may be read
// after a (see deadErrAssigns).
func readAfter(info *types.Info, v *types.Var, a *ast.AssignStmt, scope ast.Node, parent map[ast.Node]ast.Node) bool {
	reads := func(ns ...ast.Node) bool { return readsVar(info, v, ns...) }
	after := func(list []ast.Stmt, child ast.Node) bool {
		for i, s := range list {
			if s == child {
				return reads(nodes(list[i+1:])...)
			}
		}
		return false
	}
	child := ast.Node(a)
	for n := parent[child]; n != nil; child, n = n, parent[n] {
		read := false
		switch p := n.(type) {
		case *ast.BlockStmt:
			read = after(p.List, child)
		case *ast.CaseClause:
			read = after(p.Body, child)
		case *ast.CommClause:
			read = child == p.Comm && reads(nodes(p.Body)...) || after(p.Body, child)
		case *ast.IfStmt:
			read = child == p.Init && reads(p.Cond, p.Body, p.Else)
		case *ast.SwitchStmt:
			read = child == p.Init && reads(p.Tag, p.Body)
		case *ast.TypeSwitchStmt:
			read = child == p.Init && reads(p.Assign, p.Body)
		case *ast.ForStmt:
			read = reads(p.Cond, p.Post, p.Body)
		case *ast.RangeStmt:
			read = reads(p.Body)
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

// readsVar reports whether any of ns refers to v other than as the
// target of a plain assignment.
func readsVar(info *types.Info, v *types.Var, ns ...ast.Node) bool {
	found := false
	for _, n := range ns {
		if n == nil || found {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN {
					for _, l := range n.Lhs {
						if id, isIdent := l.(*ast.Ident); !isIdent || info.Uses[id] != v {
							found = found || readsVar(info, v, l)
						}
					}
					found = found || readsVar(info, v, nodes(n.Rhs)...)
					return false
				}
			case *ast.Ident:
				found = found || info.Uses[n] == v
			}
			return !found
		})
	}
	return found
}

func nodes[T ast.Node](xs []T) []ast.Node {
	out := make([]ast.Node, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}

// goFiles lists the files `gofmt -l .` looks at: every .go file under
// the repository root whose name does not start with a dot.
func goFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !strings.HasPrefix(d.Name(), ".") && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestNoDroppedErrors runs droppedErrors over every .go file of the
// module and bench/, test files included, outside testdata; its
// subtests pin each shape on a fixture.
func TestNoDroppedErrors(t *testing.T) {
	m := loadModule(t)
	watch := map[string]bool{}
	for _, name := range watched {
		watch[name] = true
	}
	for _, c := range droppedErrorCases {
		t.Run(c.name, func(t *testing.T) {
			f, err := parser.ParseFile(m.fset, c.name+".go", c.src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			info := &types.Info{
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
				Types: map[ast.Expr]types.TypeAndValue{},
			}
			conf := types.Config{Importer: m.importer}
			if _, err := conf.Check("p", m.fset, []*ast.File{f}, info); err != nil {
				t.Fatal(err)
			}
			got := droppedErrors(m.fset, f, info, watch)
			ok := len(got) == len(c.want)
			for i := 0; ok && i < len(got); i++ {
				ok = strings.Contains(got[i].msg, c.want[i])
			}
			if !ok {
				t.Errorf("want findings %q, got %v", c.want, got)
			}
		})
	}

	resolved := map[string]bool{}
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			if fn, isFunc := obj.(*types.Func); isFunc {
				resolved[fn.Origin().FullName()] = true
			}
		}
	}
	var paths []string
	for path := range m.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	wd, _ := os.Getwd()
	for _, path := range paths {
		f := m.files[path]
		for _, fd := range droppedErrors(m.fset, f.File, f.info, watch) {
			rel, _ := filepath.Rel(wd, fd.pos.Filename)
			t.Errorf("%s:%d: %s", rel, fd.pos.Line, fd.msg)
		}
	}
	for _, name := range watched {
		if !resolved[name] {
			t.Errorf("watched %s: no file refers to it; rename or drop the entry", name)
		}
	}
	for _, path := range goFiles(t) {
		abs, _ := filepath.Abs(path)
		if _, checked := m.files[abs]; !checked && !strings.Contains("/"+filepath.ToSlash(path), "/testdata/") {
			t.Errorf("%s: not in any package the loader type-checks", path)
		}
	}
}

// TestEveryPackageTested fails on a package without test files, so a
// demo or a command cannot rot unnoticed. Exempt: lvmbench's main, which
// only dispatches to the experiments package and bench/ (both tested),
// and lvmload, whose tests await a hermetic black-box process harness.
func TestEveryPackageTested(t *testing.T) {
	exempt := map[string]bool{"lvm/cmd/lvmbench": true, "lvm/cmd/lvmload": true}
	for _, p := range loadModule(t).pkgs {
		if p.ForTest != "" {
			continue
		}
		switch tested := len(p.TestGoFiles)+len(p.XTestGoFiles) > 0; {
		case !tested && !exempt[p.ImportPath]:
			t.Errorf("%s has no test files", p.ImportPath)
		case tested && exempt[p.ImportPath]:
			t.Errorf("%s has test files; drop its exemption", p.ImportPath)
		}
	}
}

// TestGofmt fails on any file `gofmt -l .` would list.
func TestGofmt(t *testing.T) {
	for _, path := range goFiles(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := format.Source(src); err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s: not gofmt-formatted", path)
		}
	}
}

// droppedErrorCases pin droppedErrors' shapes. Each fixture is package p,
// type-checked against the module; want holds one substring per
// expected finding, in order.
var droppedErrorCases = []struct {
	name, src string
	want      []string
}{
	{"BareCall", `package p
import "lvm/internal/rvm"
func f(m *rvm.Manager) {
	m.Truncate()
}`, []string{"result of (*lvm/internal/rvm.Manager).Truncate ignored"}},
	// The compaction cut compact.Manager forwards to logship.Shipper: a
	// dropped error leaves the shipper numbering records of a log that was cut.
	{"BareCompacted", `package p
import "lvm/internal/compact"
func f(s compact.Shipper, n uint64) {
	s.Compacted(n)
}`, []string{"result of (lvm/internal/compact.Shipper).Compacted ignored"}},
	{"BareCallSuppressed", `package p
import "lvm/internal/rvm"
func f(m *rvm.Manager) {
	m.Truncate() //errgate:ok — bench teardown, log discarded anyway
}`, nil},
	{"SuccessOnlyTest", `package p
import "lvm/internal/logship"
func f(s *logship.Shipper) {
	if err := s.Flush(); err == nil {
		println("ok")
	}
}`, []string{"tested only for success"}},
	// Success IS the failure in a negative test; nothing is swallowed.
	{"NegativeTestNotFlagged", `package p
import (
	"testing"
	"lvm/internal/logship"
)
func f(t *testing.T, s *logship.Shipper) {
	if err := s.Flush(); err == nil {
		t.Fatal("want error")
	}
}`, nil},
	{"BlankDiscard", `package p
import (
	"lvm/internal/core"
	"lvm/internal/rvm"
)
func f(r *core.LogReader) {
	_, _ = 0, 0
	_ = r.Seek
	_ = unrelated()
}
func g(m *rvm.Manager) {
	_ = m.Truncate()
}
func unrelated() error { return nil }`, []string{"result of (*lvm/internal/rvm.Manager).Truncate discarded via blank identifier"}},
	{"BlankDiscardSuppressed", `package p
import "lvm/internal/rvm"
func g(m *rvm.Manager) {
	_ = m.Truncate() //errgate:ok — scratch log, error is uninteresting here
}`, nil},
	{"BlankDiscardUnwatchedNotFlagged", `package p
func g() error { return nil }
func f() {
	_ = g()
}`, nil},
	{"DroppedSend", `package p
func f(ch chan int) {
	select {
	case ch <- 1:
	default:
	}
}`, []string{"non-blocking send with empty default"}},
	{"DroppedSendSuppressed", `package p
func f(ch chan int) {
	select {
	case ch <- 1: //errgate:ok — coalescing: a queued token already covers this
	default:
	}
}`, nil},
	// A default branch that does something is a handled overflow, not a
	// silent drop.
	{"SendWithHandledDefaultNotFlagged", `package p
func f(ch chan int, drops *int) {
	select {
	case ch <- 1:
	default:
		*drops++
	}
}`, nil},
	// Non-blocking receive drops nothing.
	{"ReceiveWithEmptyDefaultNotFlagged", `package p
func f(ch chan int) {
	select {
	case <-ch:
	default:
	}
}`, nil},
	{"BlockingSendNotFlagged", `package p
func f(ch chan int, done chan struct{}) {
	select {
	case ch <- 1:
	case <-done:
	}
}`, nil},
	// The tail-mirror rewrite that renamed a short file over the good one.
	{"DeadErrReassignTailShape", `package p
import "os"
func f(tmp *os.File, hdr, body []byte) error {
	if _, err := tmp.WriteAt(hdr, 0); err == nil && len(body) > 0 {
		_, err = tmp.WriteAt(body, 16)
	} else if err != nil {
		tmp.Close()
		return err
	}
	return tmp.Sync()
}`, []string{"reassigned here and never read"}},
	{"DeadErrReassignReadAfterNotFlagged", `package p
import "os"
func f(tmp *os.File, hdr, body []byte) error {
	if _, err := tmp.WriteAt(hdr, 0); err == nil {
		_, err = tmp.WriteAt(body, 16)
		if err != nil {
			return err
		}
	}
	return nil
}`, nil},
	{"DeadErrReassignElseReturnsNotFlagged", `package p
import "fmt"
func f(g func() error) error {
	if err := g(); err == nil {
		println("ok")
	} else {
		err = fmt.Errorf("g: %w", err)
		return err
	}
	return nil
}`, nil},
	// Loops read on the back edge; a nested if's own init feeds its
	// condition; a shadowing err is not the init's; closures are
	// skipped. A switch init is a scope too, and so is the else of an if
	// chain: only the last two assignments are dead.
	{"DeadErrReassignShapes", `package p
func f(g func() error) {
	for err := g(); err != nil; {
		err = g()
	}
	if err := g(); err == nil {
		if _, err = 0, g(); err != nil {
			return
		}
	}
	if err := g(); err == nil {
		err := g()
		err = g()
		_ = err
	}
	if err := g(); err == nil {
		defer func() { err = g() }()
	}
	switch err := g(); {
	case err == nil:
		err = g()
	}
	if err := g(); err != nil {
		return
	} else if true {
		err = g()
	}
}`, []string{"err declared in the switch init", "err declared in the if init"}},
}
