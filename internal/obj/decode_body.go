package obj

import (
	"fmt"

	"llva/internal/core"
)

// readFunctions decodes the bodies of all defined functions, in the order
// their shells were declared.
func (r *reader) readFunctions() error {
	for _, f := range r.bodies {
		if err := r.readBody(f); err != nil {
			return fmt.Errorf("function %%%s: %w", f.Name(), err)
		}
	}
	return nil
}

// rawInstr is a decoded-but-unwired instruction record.
type rawInstr struct {
	op     core.Opcode
	ee     bool
	ty     *core.Type
	ops    []uint64
	blocks []uint64
	cases  []int64
	alloc  *core.Type
}

func (r *reader) readBody(f *core.Function) error {
	// Local value table: module values, params, constant pool,
	// instruction results.
	values := append([]core.Value(nil), r.values...)
	for _, p := range f.Params {
		values = append(values, p)
	}

	// Constant pool.
	np, err := r.count()
	if err != nil {
		return err
	}
	for i := 0; i < np; i++ {
		c, err := r.readConst()
		if err != nil {
			return err
		}
		values = append(values, c)
	}

	nb, err := r.count()
	if err != nil {
		return err
	}
	if nb == 0 {
		return fmt.Errorf("defined function with no blocks")
	}
	blocks := make([]*core.BasicBlock, nb)
	for i := range blocks {
		blocks[i] = f.NewBlock("")
	}

	// Pass 1: decode all instruction records and create result slots.
	var raws []rawInstr
	var blockLens []int
	for bi := 0; bi < nb; bi++ {
		ni, err := r.count()
		if err != nil {
			return err
		}
		blockLens = append(blockLens, ni)
		for k := 0; k < ni; k++ {
			raw, err := r.readInstr()
			if err != nil {
				return err
			}
			raws = append(raws, raw)
		}
	}

	// Create instruction objects (operands wired in pass 2).
	instrs := make([]*core.Instruction, len(raws))
	for i, raw := range raws {
		in := core.NewInstruction(raw.op, raw.ty)
		in.ExceptionsEnabled = raw.op.DefaultExceptionsEnabled() != raw.ee
		in.Allocated = raw.alloc
		in.Cases = raw.cases
		instrs[i] = in
		values = append(values, in)
	}

	// Pass 2: wire operands and blocks, append to blocks.
	idx := 0
	for bi, bb := range blocks {
		for k := 0; k < blockLens[bi]; k++ {
			raw := raws[idx]
			in := instrs[idx]
			idx++
			for _, opid := range raw.ops {
				if opid >= uint64(len(values)) {
					return fmt.Errorf("bad operand id %d", opid)
				}
				in.AddOperand(values[opid])
			}
			for _, bid := range raw.blocks {
				if bid >= uint64(len(blocks)) {
					return fmt.Errorf("bad block id %d", bid)
				}
				in.AddBlock(blocks[bid])
			}
			bb.Append(in)
		}
	}
	f.AssignNames()
	return nil
}

func (r *reader) readInstr() (rawInstr, error) {
	var raw rawInstr
	b0, err := r.byte()
	if err != nil {
		return raw, err
	}
	raw.op = core.Opcode(b0 >> 2)
	if int(raw.op) >= core.NumOpcodes {
		return raw, fmt.Errorf("bad opcode %d", raw.op)
	}
	raw.ee = b0&2 != 0
	compact := b0&1 != 0

	if compact {
		a, err := r.byte()
		if err != nil {
			return raw, err
		}
		b, err := r.byte()
		if err != nil {
			return raw, err
		}
		t, err := r.byte()
		if err != nil {
			return raw, err
		}
		raw.ty, err = r.typeByID(uint64(t))
		if err != nil {
			return raw, err
		}
		if a != 255 {
			raw.ops = append(raw.ops, uint64(a))
		}
		if b != 255 {
			raw.ops = append(raw.ops, uint64(b))
		}
		return raw, nil
	}

	tid, err := r.uvarint()
	if err != nil {
		return raw, err
	}
	raw.ty, err = r.typeByID(tid)
	if err != nil {
		return raw, err
	}
	nops, err := r.count()
	if err != nil {
		return raw, err
	}
	if nops > 1<<16 {
		return raw, fmt.Errorf("too many operands")
	}
	for i := 0; i < nops; i++ {
		id, err := r.uvarint()
		if err != nil {
			return raw, err
		}
		raw.ops = append(raw.ops, id)
	}
	nblocks, err := r.count()
	if err != nil {
		return raw, err
	}
	if nblocks > 1<<16 {
		return raw, fmt.Errorf("too many blocks")
	}
	for i := 0; i < nblocks; i++ {
		id, err := r.uvarint()
		if err != nil {
			return raw, err
		}
		raw.blocks = append(raw.blocks, id)
	}
	switch raw.op {
	case core.OpMbr:
		nc, err := r.count()
		if err != nil {
			return raw, err
		}
		for i := 0; i < nc; i++ {
			c, err := r.svarint()
			if err != nil {
				return raw, err
			}
			raw.cases = append(raw.cases, c)
		}
	case core.OpAlloca:
		raw.alloc, err = r.readTypeID()
		if err != nil {
			return raw, err
		}
	}
	return raw, nil
}
