package analysis

import (
	"testing"

	"llva/internal/asm"
	"llva/internal/core"
)

func parse(t *testing.T, src string) *core.Module {
	t.Helper()
	m, err := asm.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

const diamond = `
int %f(bool %c) {
entry:
    br bool %c, label %left, label %right
left:
    br label %join
right:
    br label %join
join:
    %v = phi int [ 1, %left ], [ 2, %right ]
    ret int %v
}
`

func TestDominatorsDiamond(t *testing.T) {
	m := parse(t, diamond)
	f := m.Function("f")
	dt := NewDomTree(f)
	idx := dt.CFG.Index
	entry := idx(f.Block("entry"))
	left := idx(f.Block("left"))
	right := idx(f.Block("right"))
	join := idx(f.Block("join"))

	if dt.IDom[join] != entry {
		t.Errorf("idom(join) = %d, want entry", dt.IDom[join])
	}
	if !dt.Dominates(entry, join) || !dt.Dominates(entry, left) {
		t.Error("entry must dominate everything")
	}
	if dt.Dominates(left, join) || dt.Dominates(right, join) {
		t.Error("neither branch arm dominates the join")
	}
	if !dt.Dominates(join, join) {
		t.Error("dominance must be reflexive")
	}

	// Dominance frontiers: left and right have {join}; entry has none.
	df := dt.Frontiers()
	if len(df[left]) != 1 || df[left][0] != join {
		t.Errorf("DF(left) = %v, want {join}", df[left])
	}
	if len(df[right]) != 1 || df[right][0] != join {
		t.Errorf("DF(right) = %v, want {join}", df[right])
	}
	if len(df[entry]) != 0 {
		t.Errorf("DF(entry) = %v, want empty", df[entry])
	}
}

const loopNest = `
void %f(int %n) {
entry:
    br label %outer
outer:
    %i = phi int [ 0, %entry ], [ %i2, %outer.latch ]
    br label %inner
inner:
    %j = phi int [ 0, %outer ], [ %j2, %inner ]
    %j2 = add int %j, 1
    %jd = setge int %j2, %n
    br bool %jd, label %outer.latch, label %inner
outer.latch:
    %i2 = add int %i, 1
    %id = setge int %i2, %n
    br bool %id, label %exit, label %outer
exit:
    ret void
}
`

func TestLoopNest(t *testing.T) {
	m := parse(t, loopNest)
	f := m.Function("f")
	dt := NewDomTree(f)
	li := NewLoopInfo(dt)
	if len(li.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(li.Loops))
	}
	idx := dt.CFG.Index
	inner := idx(f.Block("inner"))
	outer := idx(f.Block("outer"))
	if got := li.Depth(inner); got != 2 {
		t.Errorf("depth(inner) = %d, want 2", got)
	}
	if got := li.Depth(outer); got != 1 {
		t.Errorf("depth(outer) = %d, want 1", got)
	}
	if got := li.Depth(idx(f.Block("exit"))); got != 0 {
		t.Errorf("depth(exit) = %d, want 0", got)
	}
	innerLoop := li.LoopOf[inner]
	if innerLoop.Parent == nil || innerLoop.Parent.Header != outer {
		t.Error("inner loop not nested in outer")
	}
}

const callgraphSrc = `
declare void %print_int(long %v)

int %leaf(int %x) {
entry:
    ret int %x
}
int %middle(int %x) {
entry:
    %r = call int %leaf(int %x)
    ret int %r
}
int %viaPtr(int (int)* %fn, int %x) {
entry:
    %r = call int %fn(int %x)
    ret int %r
}
int %main() {
entry:
    %a = call int %middle(int 1)
    %b = call int %viaPtr(int (int)* %leaf, int 2)
    %s = add int %a, %b
    ret int %s
}
`

func TestCallGraph(t *testing.T) {
	m := parse(t, callgraphSrc)
	cg := NewCallGraph(m)
	leaf := m.Function("leaf")
	middle := m.Function("middle")
	mainF := m.Function("main")
	viaPtr := m.Function("viaPtr")

	if !cg.AddressTaken[leaf] {
		t.Error("leaf's address escapes (passed to viaPtr)")
	}
	if cg.AddressTaken[middle] {
		t.Error("middle's address never escapes")
	}
	has := func(from, to *core.Function) bool {
		for _, f := range cg.Callees[from] {
			if f == to {
				return true
			}
		}
		return false
	}
	if !has(middle, leaf) || !has(mainF, middle) || !has(mainF, viaPtr) {
		t.Error("direct call edges missing")
	}
	// The indirect call in viaPtr conservatively targets the
	// address-taken, signature-matching leaf.
	if !has(viaPtr, leaf) {
		t.Error("indirect call edge to address-taken candidate missing")
	}
}

const aliasSrc = `
%struct.P = type { long, long }
long %f(%struct.P* %p, long* %q) {
entry:
    %a = alloca long
    %b = alloca long
    %f0 = getelementptr %struct.P* %p, long 0, ubyte 0
    %f1 = getelementptr %struct.P* %p, long 0, ubyte 1
    %f0b = getelementptr %struct.P* %p, long 0, ubyte 0
    store long 1, long* %a
    store long 2, long* %b
    %v = load long* %f0
    ret long %v
}
`

func TestAlias(t *testing.T) {
	m := parse(t, aliasSrc)
	f := m.Function("f")
	ins := f.Entry().Instructions()
	a, b := ins[0], ins[1]
	f0, f1, f0b := ins[2], ins[3], ins[4]

	if Alias(a, b) != NoAlias {
		t.Error("distinct allocas must not alias")
	}
	if Alias(f0, f1) != NoAlias {
		t.Error("distinct struct fields must not alias")
	}
	if Alias(f0, f0b) != MustAlias {
		t.Error("identical constant GEPs must alias")
	}
	if Alias(a, f.Params[0]) != NoAlias {
		t.Error("non-escaping alloca cannot alias an incoming pointer")
	}
	if Alias(f.Params[0], f.Params[1]) != MayAlias {
		t.Error("two unknown pointers may alias")
	}
}

const escapeSrc = `
declare void %sink(long* %p)
long %f() {
entry:
    %kept = alloca long
    %leaked = alloca long
    store long 1, long* %kept
    call void %sink(long* %leaked)
    %v = load long* %kept
    ret long %v
}
`

func TestEscapes(t *testing.T) {
	m := parse(t, escapeSrc)
	ins := m.Function("f").Entry().Instructions()
	kept, leaked := ins[0], ins[1]
	if Escapes(kept) {
		t.Error("kept alloca does not escape")
	}
	if !Escapes(leaked) {
		t.Error("alloca passed to a call escapes")
	}
}

func TestPostOrderAndReachability(t *testing.T) {
	src := `
void %f() {
entry:
    ret void
orphan:
    ret void
}
`
	m := parse(t, src)
	cfg := NewCFG(m.Function("f"))
	if cfg.Reachable[1] {
		t.Error("orphan block marked reachable")
	}
	po := cfg.PostOrder()
	if len(po) != 1 || po[0] != 0 {
		t.Errorf("post order = %v, want [0]", po)
	}
}
