#!/bin/sh
# loc.sh — Go lines per package directory, non-test and test, and in
# total: the counter behind ROADMAP aim 2's "lines removed is a reported
# metric". Lines are physical lines (wc -l), comments and blanks
# included, so the number moves only when the files do. testdata/,
# generated files (the standard "Code generated ... DO NOT EDIT." marker)
# and the benchmark's build directory are left out.
set -eu

cd "$(dirname "$0")/.."
find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' |
	xargs grep -L '^// Code generated .* DO NOT EDIT\.$' |
	xargs awk '
		{
			d = FILENAME
			sub(/\/[^\/]*$/, "", d)
			if (FILENAME ~ /_test\.go$/) test[d]++; else code[d]++
			seen[d] = 1
		}
		END {
			for (d in seen) printf "%-32s %7d %7d\n", d, code[d], test[d]
		}' |
	sort |
	awk '
		BEGIN { printf "%-32s %7s %7s\n", "package", "code", "test" }
		{ print; code += $2; test += $3 }
		END { printf "%-32s %7d %7d\n", "total", code, test }'
