package llva

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// testFuncs returns the name of every Test… and Benchmark… function some
// _test.go file in the tree defines.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
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
	return defined
}

// TestDocsCiteLiveTests: DESIGN.md and README.md name the test or benchmark
// that holds each property they state, the make target that runs a check
// and the file or package that implements it. Every such citation must
// name something the tree has, so that a rename or a deletion cannot leave
// the docs pointing at nothing:
//   - a code span that is one Test… or Benchmark… identifier (a trailing *
//     makes it a prefix) must name a function some _test.go file defines;
//   - a code span that starts with "make X" must name a Makefile target;
//   - a code span whose first word starts with cmd/, internal/, scripts/,
//     examples/ or bench/ must name a path that exists (a * in it is a
//     glob that must match something; a trailing .Name is a Go identifier
//     in the package the path names).
//
// EXPERIMENTS.md is exempt: it cites deleted history on purpose.
func TestDocsCiteLiveTests(t *testing.T) {
	defined := testFuncs(t)
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
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	exists := func(path string) bool {
		matches, err := filepath.Glob(path)
		return err == nil && len(matches) > 0
	}

	citeRE := regexp.MustCompile("`((?:Test|Benchmark)[A-Z]\\w*\\*?)`")
	makeRE := regexp.MustCompile("`make ([\\w-]+)")
	pathRE := regexp.MustCompile("`((?:cmd|internal|scripts|examples|bench)/[^`\\s]*)")
	identRE := regexp.MustCompile(`\.[A-Z]\w*$`) // internal/serve.Client names a package
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
		for _, m := range makeRE.FindAllSubmatch(text, -1) {
			if !targets[string(m[1])] {
				t.Errorf("%s cites `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
		for _, m := range pathRE.FindAllSubmatch(text, -1) {
			if !exists(identRE.ReplaceAllString(string(m[1]), "")) {
				t.Errorf("%s cites `%s`, which is not in the tree", doc, m[1])
			}
		}
	}
}

// TestBenchSmokeNamesLiveBenchmarks: every alternative of the -bench
// pattern `make bench-smoke` runs must match at least one Benchmark…
// function in the tree. go test runs an alternative that matches nothing
// without a word, so a deleted or renamed benchmark would otherwise drop
// out of the smoke run unnoticed.
func TestBenchSmokeNamesLiveBenchmarks(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipe := regexp.MustCompile(`(?m)^bench-smoke:\n\t.*-bench '([^']+)'`).FindSubmatch(makefile)
	if recipe == nil {
		t.Fatal("Makefile: no bench-smoke recipe with a quoted -bench pattern")
	}
	var benchmarks []string
	for name := range testFuncs(t) {
		if strings.HasPrefix(name, "Benchmark") {
			benchmarks = append(benchmarks, name)
		}
	}
	for _, alt := range strings.Split(string(recipe[1]), "|") {
		re, err := regexp.Compile(alt)
		if err != nil {
			t.Errorf("bench-smoke alternative %q: %v", alt, err)
			continue
		}
		if !slices.ContainsFunc(benchmarks, re.MatchString) {
			t.Errorf("bench-smoke alternative %q names no Benchmark function", alt)
		}
	}
}
