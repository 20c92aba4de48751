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
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
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
//   - a code span that is one Test…, Benchmark… or Fuzz… identifier (a trailing *
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

	citeRE := regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Z]\\w*\\*?)`")
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

// TestDocsNameLiveFlagsAndRoutes: the docs name only flags and routes the
// tree has, so that deleting one cannot leave it documented:
//   - every -flag in the first column of README's `llva-run`, `llva-serve`
//     and `llva-loadgen` flag tables, and every -flag in a DESIGN.md or
//     README.md code span that starts with a command name (`llva-run
//     -prof-store`), must be defined by that command's main.go;
//   - every /api/v1/… path README.md lists must be one Server.Register
//     mounts.
func TestDocsNameLiveFlagsAndRoutes(t *testing.T) {
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	defRE := regexp.MustCompile(`flag\.\w+\("([\w-]+)"`)
	flags := map[string]map[string]bool{} // command -> flags its main.go defines
	defined := func(cmd string) map[string]bool {
		if flags[cmd] == nil {
			flags[cmd] = map[string]bool{}
			for _, m := range defRE.FindAllSubmatch(read(filepath.Join("cmd", cmd, "main.go")), -1) {
				flags[cmd][string(m[1])] = true
			}
		}
		return flags[cmd]
	}
	flagRE := regexp.MustCompile("(?:^|[\\s`])-([a-z][\\w-]*)")
	check := func(doc, cmd, text string) {
		for _, m := range flagRE.FindAllStringSubmatch(text, -1) {
			if !defined(cmd)[m[1]] {
				t.Errorf("%s names %s -%s, which cmd/%s/main.go does not define", doc, cmd, m[1], cmd)
			}
		}
	}

	readme := read("README.md")
	for _, cmd := range []string{"llva-run", "llva-serve", "llva-loadgen"} {
		tableRE := regexp.MustCompile("(?m)^\\| `" + cmd + "` flag \\|.*\\n((?:\\|.*\\n)*)")
		tables := tableRE.FindAllSubmatch(readme, -1)
		if len(tables) == 0 {
			t.Errorf("README.md has no `%s` flag table", cmd)
		}
		for _, table := range tables {
			for _, row := range strings.Split(string(table[1]), "\n") {
				if cells := strings.Split(row, "|"); len(cells) > 2 {
					check("README.md's flag table", cmd, cells[1])
				}
			}
		}
	}
	spanRE := regexp.MustCompile("`(llva-[a-z]+|minicc) (-[^`]*)`")
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		for _, m := range spanRE.FindAllSubmatch(read(doc), -1) {
			check(doc, string(m[1]), string(m[2]))
		}
	}

	mounted := map[string]bool{}
	for _, m := range regexp.MustCompile(`HandleFunc\("(/api/v1/\w+)"`).FindAllSubmatch(read("internal/serve/server.go"), -1) {
		mounted[string(m[1])] = true
	}
	if len(mounted) == 0 {
		t.Fatal("internal/serve/server.go mounts no /api/v1 route: the pattern has rotted")
	}
	for _, m := range regexp.MustCompile(`/api/v1/\w+`).FindAll(readme, -1) {
		if !mounted[string(m)] {
			t.Errorf("README.md lists %s, which Server.Register does not mount", m)
		}
	}
}

// TestDocsNameLiveMetrics: every full metric name in the first column of
// README's metric table (labels {…} stripped; a .suffix shorthand for a
// sibling of the name before it skipped) must appear as a string literal
// in non-test Go under internal/, so that a metric no code records any
// more cannot stay documented.
func TestDocsNameLiveMetrics(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	table := regexp.MustCompile(`(?m)^\| Family \| Kind \| Meaning \|\n\|[-|]+\|\n((?:\|.*\n)*)`).FindSubmatch(readme)
	if table == nil {
		t.Fatal("README.md has no metric table (| Family | Kind | Meaning |)")
	}
	literals := map[string]bool{}
	litRE := regexp.MustCompile(`"([a-z][\w.]*)"`)
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range litRE.FindAllSubmatch(src, -1) {
			literals[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile("`([a-z][\\w.]*)(?:\\{[^}`]*\\})?`")
	names := 0
	for _, row := range strings.Split(strings.TrimSpace(string(table[1])), "\n") {
		cells := strings.Split(row, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range nameRE.FindAllStringSubmatch(cells[1], -1) {
			names++
			if !literals[m[1]] {
				t.Errorf("README.md's metric table names %s, which no non-test Go under internal/ spells", m[1])
			}
		}
	}
	if names == 0 {
		t.Fatal("README.md's metric table names no metric: the pattern has rotted")
	}
}
