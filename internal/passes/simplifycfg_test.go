package passes

import (
	"fmt"
	"strings"
	"testing"

	"llva/internal/asm"
	"llva/internal/core"
	"llva/internal/interp"
)

// threadCases are functions f(a, b) whose block %sc holds a bool phi and
// the branch on it, in the shapes the front end gives && and || and in
// the shapes threadBoolPhis must leave alone. threaded is how many edges
// SimplifyCFG threads past %sc, and kept whether %sc survives it.
var threadCases = []struct {
	name     string
	src      string
	threaded int
	kept     bool
}{{
	// a > 0 && b > 0: entry's false goes straight to %join, and %rhs
	// branches on its own compare.
	name: "and",
	src: `
int %f(int %a, int %b) {
entry:
    %x = setgt int %a, 0
    br bool %x, label %rhs, label %sc
rhs:
    %y = setgt int %b, 0
    br label %sc
sc:
    %p = phi bool [ false, %entry ], [ %y, %rhs ]
    br bool %p, label %then, label %join
then:
    br label %join
join:
    %r = phi int [ 1, %then ], [ 2, %sc ]
    ret int %r
}`,
	threaded: 2,
}, {
	// a > 0 || b > 0.
	name: "or",
	src: `
int %f(int %a, int %b) {
entry:
    %x = setgt int %a, 0
    br bool %x, label %sc, label %rhs
rhs:
    %y = setgt int %b, 0
    br label %sc
sc:
    %p = phi bool [ true, %entry ], [ %y, %rhs ]
    br bool %p, label %then, label %join
then:
    br label %join
join:
    %r = phi int [ 1, %then ], [ 2, %sc ]
    ret int %r
}`,
	threaded: 2,
}, {
	// !(a > 0 && b > 0): the branch on the negation swaps its targets
	// first, which leaves %sc threadable.
	name: "not-and",
	src: `
int %f(int %a, int %b) {
entry:
    %x = setgt int %a, 0
    br bool %x, label %rhs, label %sc
rhs:
    %y = setgt int %b, 0
    br label %sc
sc:
    %p = phi bool [ false, %entry ], [ %y, %rhs ]
    %n = xor bool %p, true
    br bool %n, label %then, label %join
then:
    br label %join
join:
    %r = phi int [ 1, %then ], [ 2, %sc ]
    ret int %r
}`,
	threaded: 2,
}, {
	// The constant arrives over entry's conditional edge; %mid's value
	// is entry's, not its own, so only entry's edge threads (and %sc,
	// left with one predecessor, merges into it).
	name: "const-over-conditional-edge",
	src: `
int %f(int %a, int %b) {
entry:
    %x = setgt int %a, 0
    %z = setgt int %b, 5
    br bool %x, label %sc, label %mid
mid:
    br label %sc
sc:
    %p = phi bool [ true, %entry ], [ %z, %mid ]
    br bool %p, label %then, label %join
then:
    br label %join
join:
    %r = phi int [ 1, %then ], [ 2, %sc ]
    ret int %r
}`,
	threaded: 1,
}, {
	// %sc heads a loop: threading entry's edge to the body would enter
	// the loop past its header.
	name: "loop-header",
	src: `
int %f(int %a, int %b) {
entry:
    %n = alloca int
    store int %a, int* %n
    br label %sc
sc:
    %p = phi bool [ true, %entry ], [ %c, %body ]
    br bool %p, label %body, label %exit
body:
    %v = load int* %n
    %v1 = sub int %v, 1
    store int %v1, int* %n
    %c = setgt int %v1, %b
    br label %sc
exit:
    %r = load int* %n
    ret int %r
}`,
	kept: true,
}, {
	// %p is also %then's result.
	name: "second-use",
	src: `
int %f(int %a, int %b) {
entry:
    %x = setgt int %a, 0
    br bool %x, label %rhs, label %sc
rhs:
    %y = setgt int %b, 0
    br label %sc
sc:
    %p = phi bool [ false, %entry ], [ %y, %rhs ]
    br bool %p, label %then, label %join
then:
    %q = cast bool %p to int
    ret int %q
join:
    ret int 2
}`,
	kept: true,
}, {
	// %mid already branches to %join, where its false would go: only
	// %rhs's edge threads.
	name: "pred-reaches-target",
	src: `
int %f(int %a, int %b) {
entry:
    %x = setgt int %a, 0
    br bool %x, label %rhs, label %mid
mid:
    %z = setgt int %b, 10
    br bool %z, label %sc, label %join
rhs:
    %y = setgt int %b, 0
    br label %sc
sc:
    %p = phi bool [ false, %mid ], [ %y, %rhs ]
    br bool %p, label %then, label %join
then:
    br label %join
join:
    %r = phi int [ 1, %then ], [ 2, %sc ], [ 3, %mid ]
    ret int %r
}`,
	threaded: 1,
	kept:     true,
}, {
	// Both targets are %join: there is no branch to thread.
	name: "same-targets",
	src: `
int %f(int %a, int %b) {
entry:
    %x = setgt int %a, 0
    br bool %x, label %rhs, label %sc
rhs:
    %y = setgt int %b, 0
    br label %sc
sc:
    %p = phi bool [ false, %entry ], [ %y, %rhs ]
    br bool %p, label %join, label %join
join:
    %r = phi int [ 2, %sc ]
    ret int %r
}`,
	kept: true,
}}

// results runs f over a grid of arguments on the interpreter.
func results(t *testing.T, m *core.Module) string {
	t.Helper()
	ip, err := interp.New(m, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	args := []int64{-1, 0, 1, 3, 6, 11}
	for _, a := range args {
		for _, c := range args {
			v, err := ip.Run("f", uint64(a), uint64(c))
			if err != nil {
				t.Fatalf("f(%d, %d): %v", a, c, err)
			}
			fmt.Fprintf(&b, " %d", int32(v))
		}
	}
	return b.String()
}

// TestSimplifyCFGThreadsBoolPhi holds threadBoolPhis to the edges it
// threads and the blocks it leaves alone, with the verifier and the
// interpreter's results unchanged.
func TestSimplifyCFGThreadsBoolPhi(t *testing.T) {
	for _, c := range threadCases {
		t.Run(c.name, func(t *testing.T) {
			m, err := asm.Parse("t", c.src)
			if err != nil {
				t.Fatal(err)
			}
			want := results(t, m)
			s := NewStats()
			SimplifyCFG(m, s)
			if err := core.Verify(m); err != nil {
				t.Fatalf("verify: %v\n%s", err, asm.Print(m))
			}
			f := m.Function("f")
			if got := s.Counts["simplifycfg.threaded"]; got != c.threaded {
				t.Errorf("threaded %d edges, want %d\n%s", got, c.threaded, asm.Print(m))
			}
			if kept := f.Block("sc") != nil; kept != c.kept {
				t.Errorf("%%sc kept = %v, want %v\n%s", kept, c.kept, asm.Print(m))
			}
			if got := results(t, m); got != want {
				t.Errorf("results changed:\nbefore %s\nafter  %s\n%s", want, got, asm.Print(m))
			}
		})
	}
}
