package interp

import (
	"fmt"
	"math"

	"llva/internal/core"
)

// constBits converts a scalar constant to its canonical word.
func (ip *Interp) constBits(c *core.Constant) (uint64, *trap) {
	if w, ok := c.Word(); ok {
		return w, nil
	}
	if c.CK == core.ConstGlobal {
		switch ref := c.Ref.(type) {
		case *core.GlobalVariable:
			return ip.data.GlobalAddr[ref.Name()], nil
		case *core.Function:
			return ip.funcAddr[ref.Name()], nil
		}
	}
	return 0, &trap{kind: trapFatal, err: fmt.Errorf("interp: non-scalar constant operand %s", c.Ident())}
}

func (ip *Interp) operand(fr *frame, v core.Value) (uint64, *trap) {
	switch x := v.(type) {
	case *core.Constant:
		return ip.constBits(x)
	case *core.GlobalVariable:
		return ip.data.GlobalAddr[x.Name()], nil
	case *core.Function:
		return ip.funcAddr[x.Name()], nil
	case *core.Argument, *core.Instruction:
		w, ok := fr.vals[v]
		if !ok {
			return 0, &trap{kind: trapFatal,
				err: fmt.Errorf("interp: use of undefined value %s in %%%s", v.Ident(), fr.fn.Name())}
		}
		return w, nil
	}
	return 0, &trap{kind: trapFatal, err: fmt.Errorf("interp: bad operand %T", v)}
}

func (ip *Interp) execInstr(fr *frame, in *core.Instruction) (uint64, *trap) {
	op := in.Op()
	if op.IsBinary() {
		x, tr := ip.operand(fr, in.Operand(0))
		if tr != nil {
			return 0, tr
		}
		y, tr := ip.operand(fr, in.Operand(1))
		if tr != nil {
			return 0, tr
		}
		return ip.binary(in, x, y)
	}
	switch op {
	case core.OpLoad:
		addr, tr := ip.operand(fr, in.Operand(0))
		if tr != nil {
			return 0, tr
		}
		return ip.load(in, in.Type(), addr)
	case core.OpStore:
		v, tr := ip.operand(fr, in.Operand(0))
		if tr != nil {
			return 0, tr
		}
		addr, tr := ip.operand(fr, in.Operand(1))
		if tr != nil {
			return 0, tr
		}
		return 0, ip.store(in, in.Operand(0).Type(), addr, v)
	case core.OpGetElementPtr:
		return ip.gep(fr, in)
	case core.OpAlloca:
		count := uint64(1)
		if in.NumOperands() == 1 {
			c, tr := ip.operand(fr, in.Operand(0))
			if tr != nil {
				return 0, tr
			}
			count = c
		}
		size := uint64(ip.lay.Size(in.Allocated)) * count
		addr, err := ip.mem.PushStack(size)
		if err != nil {
			return 0, ip.deliver(TrapMemoryFault, err)
		}
		// Zero the stack allocation for deterministic behaviour across
		// engines.
		b, _ := ip.mem.Bytes(addr, size)
		clear(b)
		return addr, nil
	case core.OpCast:
		x, tr := ip.operand(fr, in.Operand(0))
		if tr != nil {
			return 0, tr
		}
		return core.ScalarOf(in.Operand(0).Type()).Cast(core.ScalarOf(in.Type()), x), nil
	case core.OpCall:
		v, _, tr := ip.execCall(fr, in)
		return v, tr
	}
	return 0, &trap{kind: trapFatal, err: fmt.Errorf("interp: unexpected opcode %s", op)}
}

func (ip *Interp) execTerminator(fr *frame, in *core.Instruction) (uint64, *core.BasicBlock, *trap) {
	switch in.Op() {
	case core.OpRet:
		if in.NumOperands() == 0 {
			return 0, nil, nil
		}
		v, tr := ip.operand(fr, in.Operand(0))
		return v, nil, tr
	case core.OpBr:
		if in.NumBlocks() == 1 {
			return 0, in.Block(0), nil
		}
		c, tr := ip.operand(fr, in.Operand(0))
		if tr != nil {
			return 0, nil, tr
		}
		if c&1 != 0 {
			return 0, in.Block(0), nil
		}
		return 0, in.Block(1), nil
	case core.OpMbr:
		v, tr := ip.operand(fr, in.Operand(0))
		if tr != nil {
			return 0, nil, tr
		}
		sv := int64(v)
		for i, cv := range in.Cases {
			if cv == sv {
				return 0, in.Block(i + 1), nil
			}
		}
		return 0, in.Block(0), nil
	case core.OpInvoke:
		v, unwound, tr := ip.execCall(fr, in)
		if tr != nil {
			return 0, nil, tr
		}
		if unwound {
			return 0, in.Block(1), nil
		}
		if in.HasResult() {
			fr.vals[in] = v
		}
		return 0, in.Block(0), nil
	case core.OpUnwind:
		return 0, nil, &trap{kind: trapUnwind}
	}
	return 0, nil, &trap{kind: trapFatal, err: fmt.Errorf("interp: bad terminator %s", in.Op())}
}

// execCall evaluates a call or invoke. For invoke, a trapUnwind from the
// callee is caught here and reported via the unwound flag.
func (ip *Interp) execCall(fr *frame, in *core.Instruction) (uint64, bool, *trap) {
	cv, tr := ip.operand(fr, in.Callee())
	if tr != nil {
		return 0, false, tr
	}
	callee, ok := ip.addrFunc[cv]
	if !ok {
		return 0, false, ip.deliver(TrapMemoryFault,
			fmt.Errorf("indirect call through non-function address 0x%x", cv))
	}
	args := make([]uint64, 0, in.NumOperands()-1)
	for _, a := range in.CallArgs() {
		w, tr := ip.operand(fr, a)
		if tr != nil {
			return 0, false, tr
		}
		args = append(args, w)
	}
	v, tr := ip.call(callee, args)
	if tr != nil && tr.kind == trapUnwind && in.Op() == core.OpInvoke {
		return 0, true, nil
	}
	return v, false, tr
}

func (ip *Interp) load(in *core.Instruction, t *core.Type, addr uint64) (uint64, *trap) {
	size := int(ip.lay.Size(t))
	v, err := ip.mem.Load(addr, size)
	if err != nil {
		if !in.ExceptionsEnabled {
			ip.ignored()
			return 0, nil
		}
		return 0, ip.deliver(TrapMemoryFault, err)
	}
	if t.IsFloat() {
		if t.Kind() == core.FloatKind {
			return math.Float64bits(float64(math.Float32frombits(uint32(v)))), nil
		}
		return v, nil
	}
	return core.ScalarOf(t).Canon(v), nil
}

func (ip *Interp) store(in *core.Instruction, t *core.Type, addr, v uint64) *trap {
	size := int(ip.lay.Size(t))
	w := v
	if t.Kind() == core.FloatKind {
		w = uint64(math.Float32bits(float32(math.Float64frombits(v))))
	}
	if err := ip.mem.Store(addr, size, w); err != nil {
		if !in.ExceptionsEnabled {
			ip.ignored()
			return nil
		}
		return ip.deliver(TrapMemoryFault, err)
	}
	return nil
}

func (ip *Interp) gep(fr *frame, in *core.Instruction) (uint64, *trap) {
	base, tr := ip.operand(fr, in.Operand(0))
	if tr != nil {
		return 0, tr
	}
	cur := in.Operand(0).Type().Elem()
	addr := base
	for i, idxOp := range in.Operands()[1:] {
		idx, tr := ip.operand(fr, idxOp)
		if tr != nil {
			return 0, tr
		}
		sidx := int64(idx)
		if i == 0 {
			addr += uint64(sidx * ip.lay.Size(cur))
			continue
		}
		switch cur.Kind() {
		case core.StructKind:
			fi := int(sidx)
			addr += uint64(ip.lay.FieldOffset(cur, fi))
			cur = cur.Fields()[fi]
		case core.ArrayKind:
			cur = cur.Elem()
			addr += uint64(sidx * ip.lay.Size(cur))
		default:
			return 0, &trap{kind: trapFatal, err: fmt.Errorf("interp: GEP into %s", cur)}
		}
	}
	return addr, nil
}

// binary evaluates a binary instruction on its operands' words. A fault
// traps, or reads as 0 when the instruction's exceptions are disabled.
func (ip *Interp) binary(in *core.Instruction, x, y uint64) (uint64, *trap) {
	op := in.Op()
	w, fault := core.ScalarOf(in.Operand(0).Type()).Binary(op, x, y)
	if fault == core.NoFault {
		return w, nil
	}
	if !in.ExceptionsEnabled {
		ip.ignored()
		return 0, nil
	}
	if fault == core.DivOverflow {
		return 0, ip.deliver(TrapDivByZero, fmt.Errorf("%s overflow", op))
	}
	return 0, ip.deliver(TrapDivByZero, fmt.Errorf("%s by zero", op))
}
