package llva

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteLiveTests: DESIGN.md and README.md name the test or benchmark
// that holds each property they state. Every such citation, a code span that
// is one Test… or Benchmark… identifier (a trailing * makes it a prefix),
// must name a function some _test.go file of the tree defines, so that a
// rename or a deletion cannot leave the docs pointing at nothing.
// EXPERIMENTS.md is exempt: it cites deleted history on purpose.
func TestDocsCiteLiveTests(t *testing.T) {
	defined := map[string]bool{}
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range funcRE.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	live := func(cited string) bool {
		prefix, wild := strings.CutSuffix(cited, "*")
		if !wild {
			return defined[cited]
		}
		for name := range defined {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}
	citeRE := regexp.MustCompile("`((?:Test|Benchmark)[A-Z]\\w*\\*?)`")
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cites := citeRE.FindAllSubmatch(text, -1)
		if doc == "DESIGN.md" && len(cites) == 0 {
			t.Errorf("%s cites no test: the citation pattern has rotted", doc)
		}
		for _, m := range cites {
			if !live(string(m[1])) {
				t.Errorf("%s cites `%s`, which no _test.go file defines", doc, m[1])
			}
		}
	}
}
