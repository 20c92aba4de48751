package obj

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"llva/internal/core"
)

type reader struct {
	r   *bytes.Reader
	m   *core.Module
	ctx *core.TypeContext

	typeLst []*core.Type
	values  []core.Value // module-level: globals then functions
	bodies  []*core.Function
}

// Decode deserializes virtual object code into a module. Malformed or
// corrupted input yields an error, never a panic: the decoder validates
// structurally and converts any residual constructor panic (reachable
// only through adversarial bit patterns) into an error. No count it
// reads sizes an allocation or a loop beyond the object's length (see
// count), so what a decode allocates is bounded by the input too.
func Decode(data []byte) (m *core.Module, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			m, err = nil, fmt.Errorf("obj: malformed object: %v", rec)
		}
	}()
	r := &reader{r: bytes.NewReader(data)}
	m, err = r.run()
	if err != nil {
		return nil, fmt.Errorf("obj: %w", err)
	}
	return m, nil
}

func (r *reader) run() (*core.Module, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r.r, magic[:]); err != nil || magic != Magic {
		return nil, fmt.Errorf("bad magic")
	}
	ver, err := r.byte()
	if err != nil || ver != Version {
		return nil, fmt.Errorf("unsupported version %d", ver)
	}
	flags, err := r.byte()
	if err != nil {
		return nil, err
	}
	name, err := r.str()
	if err != nil {
		return nil, err
	}
	r.m = core.NewModule(name)
	r.ctx = r.m.Types()
	r.m.LittleEndian = flags&1 != 0
	if flags&2 != 0 {
		r.m.PointerSize = 8
	} else {
		r.m.PointerSize = 4
	}

	if err := r.readTypes(); err != nil {
		return nil, err
	}
	if err := r.readGlobals(); err != nil {
		return nil, err
	}
	if err := r.readFunctions(); err != nil {
		return nil, err
	}
	return r.m, nil
}

func (r *reader) byte() (byte, error) { return r.r.ReadByte() }

func (r *reader) uvarint() (uint64, error) { return binary.ReadUvarint(r.r) }

func (r *reader) svarint() (int64, error) { return binary.ReadVarint(r.r) }

// count reads the number of entries that follow. Every entry takes at
// least one byte, so a count beyond the bytes left is an error before it
// sizes anything.
func (r *reader) count() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.r.Len()) {
		return 0, fmt.Errorf("count %d exceeds the %d bytes left", n, r.r.Len())
	}
	return int(n), nil
}

func (r *reader) str() (string, error) {
	n, err := r.count()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("string too long")
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) u64() (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func (r *reader) typeByID(id uint64) (*core.Type, error) {
	if id >= uint64(len(r.typeLst)) || r.typeLst[id] == nil {
		return nil, fmt.Errorf("bad type id %d", id)
	}
	return r.typeLst[id], nil
}

func (r *reader) readTypeID() (*core.Type, error) {
	id, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	return r.typeByID(id)
}

// readTypes reconstructs the type table. Named structs may reference
// themselves; they are created first (opaque) and given bodies after all
// types are read, so field IDs may be forward references.
func (r *reader) readTypes() error {
	n, err := r.count()
	if err != nil {
		return err
	}
	if n > 1<<20 {
		return fmt.Errorf("too many types")
	}
	r.typeLst = make([]*core.Type, n)
	type pendingStruct struct {
		t      *core.Type
		fields []uint64
	}
	type pendingOther struct {
		idx     int
		kind    core.Kind
		n       uint64
		elem    uint64
		fields  []uint64
		ret     uint64
		params  []uint64
		vararg  bool
		sname   string
		hasBody bool
	}
	var namedPending []pendingStruct
	var others []pendingOther

	for i := 0; i < n; i++ {
		kb, err := r.byte()
		if err != nil {
			return err
		}
		k := core.Kind(kb)
		switch k {
		case core.PointerKind:
			id, err := r.uvarint()
			if err != nil {
				return err
			}
			others = append(others, pendingOther{idx: i, kind: k, elem: id})
		case core.ArrayKind:
			ln, err := r.uvarint()
			if err != nil {
				return err
			}
			id, err := r.uvarint()
			if err != nil {
				return err
			}
			others = append(others, pendingOther{idx: i, kind: k, n: ln, elem: id})
		case core.StructKind:
			sname, err := r.str()
			if err != nil {
				return err
			}
			nf, err := r.count()
			if err != nil {
				return err
			}
			hasBody, err := r.byte()
			if err != nil {
				return err
			}
			fields := make([]uint64, nf)
			if hasBody == 1 {
				for j := range fields {
					if fields[j], err = r.uvarint(); err != nil {
						return err
					}
				}
			}
			if sname != "" {
				t := r.ctx.NamedStruct(sname)
				r.typeLst[i] = t
				if hasBody == 1 {
					namedPending = append(namedPending, pendingStruct{t: t, fields: fields})
				}
			} else {
				others = append(others, pendingOther{idx: i, kind: k, fields: fields, hasBody: hasBody == 1})
			}
		case core.FunctionKind:
			ret, err := r.uvarint()
			if err != nil {
				return err
			}
			np, err := r.count()
			if err != nil {
				return err
			}
			params := make([]uint64, np)
			for j := range params {
				if params[j], err = r.uvarint(); err != nil {
					return err
				}
			}
			va, err := r.byte()
			if err != nil {
				return err
			}
			others = append(others, pendingOther{idx: i, kind: k, ret: ret, params: params, vararg: va == 1})
		default:
			if k > core.LabelKind {
				return fmt.Errorf("bad type kind %d", k)
			}
			r.typeLst[i] = r.ctx.Primitive(k)
		}
	}

	// Resolve non-named derived types. Because the writer emits components
	// before composites (except named structs), a single ordered pass
	// suffices, retrying until fixpoint for safety.
	remaining := others
	for len(remaining) > 0 {
		var next []pendingOther
		progress := false
		for _, p := range remaining {
			ok := true
			get := func(id uint64) *core.Type {
				if id >= uint64(len(r.typeLst)) || r.typeLst[id] == nil {
					ok = false
					return nil
				}
				return r.typeLst[id]
			}
			switch p.kind {
			case core.PointerKind:
				e := get(p.elem)
				if ok {
					r.typeLst[p.idx] = r.ctx.Pointer(e)
				}
			case core.ArrayKind:
				e := get(p.elem)
				if ok {
					r.typeLst[p.idx] = r.ctx.Array(int(p.n), e)
				}
			case core.StructKind:
				fields := make([]*core.Type, len(p.fields))
				for j, id := range p.fields {
					fields[j] = get(id)
				}
				if ok {
					r.typeLst[p.idx] = r.ctx.Struct(fields...)
				}
			case core.FunctionKind:
				ret := get(p.ret)
				params := make([]*core.Type, len(p.params))
				for j, id := range p.params {
					params[j] = get(id)
				}
				if ok {
					r.typeLst[p.idx] = r.ctx.Function(ret, params, p.vararg)
				}
			}
			if ok {
				progress = true
			} else {
				next = append(next, p)
			}
		}
		if !progress {
			return fmt.Errorf("unresolvable type table")
		}
		remaining = next
	}

	// Named struct bodies last (fields may be any type).
	for _, p := range namedPending {
		fields := make([]*core.Type, len(p.fields))
		for j, id := range p.fields {
			t, err := r.typeByID(id)
			if err != nil {
				return err
			}
			fields[j] = t
		}
		r.ctx.SetBody(p.t, fields...)
	}
	return nil
}

func (r *reader) readConst() (*core.Constant, error) {
	kb, err := r.byte()
	if err != nil {
		return nil, err
	}
	ck := core.ConstKind(kb)
	t, err := r.readTypeID()
	if err != nil {
		return nil, err
	}
	switch ck {
	case core.ConstInt:
		v, err := r.svarint()
		if err != nil {
			return nil, err
		}
		if !t.IsInteger() {
			return nil, fmt.Errorf("integer constant with non-integer type %s", t)
		}
		return core.NewInt(t, v), nil
	case core.ConstBool:
		b, err := r.byte()
		if err != nil {
			return nil, err
		}
		if t.Kind() != core.BoolKind {
			return nil, fmt.Errorf("bool constant with type %s", t)
		}
		return core.NewBool(t, b != 0), nil
	case core.ConstFloat:
		bits, err := r.u64()
		if err != nil {
			return nil, err
		}
		if !t.IsFloat() {
			return nil, fmt.Errorf("float constant with type %s", t)
		}
		return core.NewFloat(t, math.Float64frombits(bits)), nil
	case core.ConstNull:
		if t.Kind() != core.PointerKind {
			return nil, fmt.Errorf("null constant with type %s", t)
		}
		return core.NewNull(t), nil
	case core.ConstUndef:
		return core.NewUndef(t), nil
	case core.ConstZero:
		return core.NewZero(t), nil
	case core.ConstArray, core.ConstStruct:
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		if n > 1<<20 {
			return nil, fmt.Errorf("aggregate constant too large")
		}
		if ck == core.ConstArray && (t.Kind() != core.ArrayKind || n != t.Len()) {
			return nil, fmt.Errorf("array constant shape mismatch for %s", t)
		}
		if ck == core.ConstStruct && (t.Kind() != core.StructKind || n != len(t.Fields())) {
			return nil, fmt.Errorf("struct constant shape mismatch for %s", t)
		}
		elems := make([]*core.Constant, n)
		for i := range elems {
			if elems[i], err = r.readConst(); err != nil {
				return nil, err
			}
			var want *core.Type
			if ck == core.ConstArray {
				want = t.Elem()
			} else {
				want = t.Fields()[i]
			}
			if elems[i].Type() != want {
				return nil, fmt.Errorf("aggregate element %d has type %s, want %s",
					i, elems[i].Type(), want)
			}
		}
		if ck == core.ConstArray {
			return core.NewArray(t, elems), nil
		}
		return core.NewStruct(t, elems), nil
	case core.ConstGlobal:
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if id >= uint64(len(r.values)) {
			return nil, fmt.Errorf("bad global id %d in constant", id)
		}
		return core.NewGlobalRef(r.values[id]), nil
	}
	return nil, fmt.Errorf("bad constant kind %d", ck)
}

// readGlobals decodes the symbol tables (global shells then function
// shells), then the global initializers. Shell-first layout means
// initializer ConstGlobal references always resolve.
func (r *reader) readGlobals() error {
	ng, err := r.count()
	if err != nil {
		return err
	}
	type gshell struct {
		g       *core.GlobalVariable
		hasInit bool
	}
	shells := make([]gshell, 0, ng)
	for i := 0; i < ng; i++ {
		name, err := r.str()
		if err != nil {
			return err
		}
		vt, err := r.readTypeID()
		if err != nil {
			return err
		}
		flags, err := r.byte()
		if err != nil {
			return err
		}
		g := r.m.NewGlobal(name, vt, nil, flags&1 != 0)
		shells = append(shells, gshell{g: g, hasInit: flags&2 != 0})
	}

	nf, err := r.count()
	if err != nil {
		return err
	}
	for i := 0; i < nf; i++ {
		name, err := r.str()
		if err != nil {
			return err
		}
		sig, err := r.readTypeID()
		if err != nil {
			return err
		}
		flags, err := r.byte()
		if err != nil {
			return err
		}
		f := r.m.NewFunction(name, sig)
		f.Internal = flags&1 != 0
		if flags&2 != 0 {
			r.bodies = append(r.bodies, f)
		}
	}

	// Module value IDs: globals then functions.
	for _, g := range r.m.Globals {
		r.values = append(r.values, g)
	}
	for _, f := range r.m.Functions {
		r.values = append(r.values, f)
	}

	// Initializers.
	for _, s := range shells {
		if !s.hasInit {
			continue
		}
		c, err := r.readConst()
		if err != nil {
			return err
		}
		if c.Type() != s.g.ValueType() {
			return fmt.Errorf("global %%%s initializer type mismatch", s.g.Name())
		}
		s.g.Init = c
	}
	return nil
}
