package billboard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sync"
	"testing"
)

// TestAtomicOrResultStaysUnused guards the postBit and ClearProbes
// workarounds for a go1.24.0 code generation bug: atomic Or- and
// And-with-result are miscompiled on amd64 (the LOCK CMPXCHG loop can
// overwrite a register that still holds a live value), so billboard.go
// must only ever use .Or(...) and .And(...) as bare statements (plain
// LOCK OR / LOCK AND), never consume their return values. This test
// parses the source so a refactor that starts reading the result —
// e.g. `if old := known[w].And(^mask); old&mask != 0` — fails loudly
// instead of reintroducing the miscompile.
func TestAtomicOrResultStaysUnused(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "billboard.go", nil, 0)
	if err != nil {
		t.Fatalf("parsing billboard.go: %v", err)
	}
	// Collect every .Or(...) and .And(...) call, and separately those
	// appearing as a bare expression statement. Any call outside that
	// set has its result consumed.
	calls := map[*ast.CallExpr]bool{}
	found := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Or" || sel.Sel.Name == "And") {
				calls[call] = false
				found[sel.Sel.Name] = true
			}
		}
		return true
	})
	for _, op := range []string{"Or", "And"} {
		if !found[op] {
			t.Fatalf("no .%s( calls found in billboard.go; if the probe planes no longer use atomic %s, drop it from this guard", op, op)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if stmt, ok := n.(*ast.ExprStmt); ok {
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				if _, tracked := calls[call]; tracked {
					calls[call] = true
				}
			}
		}
		return true
	})
	for call, bare := range calls {
		if !bare {
			pos := fset.Position(call.Pos())
			t.Errorf("%s: atomic %s result is consumed; keep it a bare statement (go1.24.0 miscompiles Or/And-with-result on amd64, see postBit and ClearProbes)",
				pos, call.Fun.(*ast.SelectorExpr).Sel.Name)
		}
	}
}

// TestPostProbeFirstPostWinsPerWriter exercises the single-writer
// contract the bare-Or pattern relies on: for each player all posts
// come from one goroutine, duplicates are dropped on the known-bit
// load, and the first posted grade sticks.
func TestPostProbeFirstPostWinsPerWriter(t *testing.T) {
	const n, m = 8, 256
	b := New(n, m)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for o := 0; o < m; o++ {
				b.PostProbe(p, o, byte((p+o)%2))
				b.PostProbe(p, o, byte((p+o+1)%2)) // duplicate: must not flip
			}
		}(p)
	}
	wg.Wait()
	if got, want := b.ProbeCount(), int64(n*m); got != want {
		t.Fatalf("ProbeCount = %d, want %d (duplicates must not be charged)", got, want)
	}
	for p := 0; p < n; p++ {
		for o := 0; o < m; o++ {
			v, ok := b.LookupProbe(p, o)
			if !ok || v != byte((p+o)%2) {
				t.Fatalf("LookupProbe(%d,%d) = %d,%v; first post must win", p, o, v, ok)
			}
		}
	}
}
