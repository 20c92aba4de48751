package core

import "fmt"

// Value is anything usable as an instruction operand: constants, function
// arguments, instructions (their results), basic blocks (as branch targets),
// functions and global variables (as their addresses).
type Value interface {
	// Type returns the value's LLVA type.
	Type() *Type
	// Name returns the value's register/symbol name (may be empty for
	// unnamed values; the printer assigns numeric names on demand).
	Name() string
	// Ident renders the value as an operand in assembly (e.g. "%x",
	// "42", "null").
	Ident() string
}

// Use records a single use of a Value by an Instruction operand slot.
type Use struct {
	User  *Instruction
	Index int // operand index within User
}

// userTracked is implemented by values that maintain def-use chains.
// Constants are shared and immutable, so they do not track uses.
type userTracked interface {
	addUse(Use)
	removeUse(Use)
}

// useList is embedded in definable values to maintain def-use chains.
type useList struct {
	uses []Use
}

func (u *useList) addUse(use Use) { u.uses = append(u.uses, use) }

func (u *useList) removeUse(use Use) {
	for i, x := range u.uses {
		if x == use {
			last := len(u.uses) - 1
			u.uses[i] = u.uses[last]
			u.uses = u.uses[:last]
			return
		}
	}
}

// Uses returns a snapshot of all uses of the value, for a caller that
// changes them while it walks them.
func (u *useList) Uses() []Use {
	out := make([]Use, len(u.uses))
	copy(out, u.uses)
	return out
}

// UseList returns the uses of the value without copying them. Callers
// must not modify the list, nor add or drop uses of the value while they
// walk it.
func (u *useList) UseList() []Use { return u.uses }

// NumUses reports the current number of uses.
func (u *useList) NumUses() int { return len(u.uses) }

func trackUse(v Value, use Use) {
	if t, ok := v.(userTracked); ok {
		t.addUse(use)
	}
}

func untrackUse(v Value, use Use) {
	if t, ok := v.(userTracked); ok {
		t.removeUse(use)
	}
}

// replaceable is implemented by values supporting ReplaceAllUsesWith.
type replaceable interface {
	Value
	list() *useList
}

func (u *useList) list() *useList { return u }

// ReplaceAllUsesWith rewrites every use of old to refer to new instead.
// new gains the uses in old's order, and old's list is emptied in one
// step rather than one use at a time.
func ReplaceAllUsesWith(old replaceable, new Value) {
	if old == new {
		return
	}
	l := old.list()
	for _, u := range l.uses {
		u.User.ops[u.Index] = new
		trackUse(new, u)
	}
	l.uses = l.uses[:0]
}

// Placeholder is a temporary stand-in value used by parsers and builders
// for forward references. It tracks uses so it can be replaced (via
// ReplaceAllUsesWith) once the real definition is seen. A verified module
// never contains placeholders.
type Placeholder struct {
	useList
	ty   *Type
	name string
}

// NewPlaceholder creates a placeholder of the given type and name.
func NewPlaceholder(ty *Type, name string) *Placeholder {
	return &Placeholder{ty: ty, name: name}
}

// Type returns the placeholder's declared type.
func (p *Placeholder) Type() *Type { return p.ty }

// Name returns the forward-referenced name.
func (p *Placeholder) Name() string { return p.name }

// Ident renders the placeholder as an operand.
func (p *Placeholder) Ident() string { return "%" + p.name }

// Argument is a formal parameter of a Function.
type Argument struct {
	useList
	name   string
	ty     *Type
	parent *Function
	index  int
}

// Type returns the parameter type.
func (a *Argument) Type() *Type { return a.ty }

// Name returns the parameter name.
func (a *Argument) Name() string { return a.name }

// SetName renames the parameter.
func (a *Argument) SetName(n string) { a.name = n }

// Ident renders the argument as an operand.
func (a *Argument) Ident() string { return "%" + a.name }

// Parent returns the function owning this parameter.
func (a *Argument) Parent() *Function { return a.parent }

// Index returns the zero-based parameter position.
func (a *Argument) Index() int { return a.index }

func (a *Argument) String() string { return fmt.Sprintf("%s %%%s", a.ty, a.name) }
