package llva

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoPointerKeyedMaps keeps the translate path on numbered tables:
// the optimizer, both translators and the object writer index a
// function's blocks and instructions by their numbers
// (core.BasicBlock.Num, core.Instruction.Num) and its parameters by
// core.Argument.Index, in slices, not in maps keyed by pointer, which
// hash and grow on every call. A map keyed by *core.Instruction,
// *core.BasicBlock or core.Value in a non-test file below fails the test
// unless its file and key are allowed here, with the reason beside them.
func TestNoPointerKeyedMaps(t *testing.T) {
	allowed := map[string]string{
		"internal/obj/encode.go core.Value": "module-level globals and functions have no " +
			"function-local number, and the table is built once per module",
		"internal/analysis/dsa.go core.Value": "DSA unifies values of every function and " +
			"global of a module; only PoolAllocate runs it, not O2 or a translator",
	}
	guarded := map[string]bool{"*core.Instruction": true, "*core.BasicBlock": true, "core.Value": true}
	var files []string
	for _, dir := range []string{"internal/passes", "internal/codegen", "internal/analysis"} {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, names...)
	}
	files = append(files, "internal/obj/encode.go", "internal/core/clone.go")
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			m, ok := n.(*ast.MapType)
			if !ok {
				return true
			}
			key := types.ExprString(m.Key)
			if f.Name.Name == "core" { // core's own names are unqualified
				key = strings.Replace("core."+key, "core.*", "*core.", 1)
			}
			if !guarded[key] {
				return true
			}
			if entry := filepath.ToSlash(name) + " " + key; allowed[entry] != "" {
				used[entry] = true
				return true
			}
			t.Errorf("%s: map keyed by %s: index a slice by the value's number instead",
				fset.Position(m.Pos()), key)
			return true
		})
	}
	for entry := range allowed {
		if !used[entry] {
			t.Errorf("allowed map %q no longer exists: take it off the list", entry)
		}
	}
}
