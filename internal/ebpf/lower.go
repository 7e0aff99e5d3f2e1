package ebpf

import (
	"fmt"
	"sort"
)

// errLower aborts lowering, and Load reports it as a load error. For a
// verified program this never fires — every case it guards is already
// rejected by checkStructure — but lowering is also exercised directly by
// tests on hand-built programs, so it stays defensive.
var errLower = fmt.Errorf("ebpf: program not lowerable")

// lowerProgram translates bytecode into the basic-block IR, resolving
// addressing against the verifier facts. facts may be nil (tests), in
// which case every memory access and argument-taking helper keeps its
// fully checked dynamic form and all instructions are assumed reachable.
// With real facts, instructions the verifier never explored (dead code
// after an exit or behind a statically decided branch) are skipped: the
// verifier proved nothing about them, and they can never execute.
func lowerProgram(insns []Insn, maps []Map, facts *progFacts) (*irProg, error) {
	if len(insns) == 0 {
		return nil, fmt.Errorf("%w: empty", errLower)
	}

	reach := make([]bool, len(insns))
	if facts != nil && len(facts.reach) == len(insns) {
		copy(reach, facts.reach)
	} else {
		for i := range reach {
			reach[i] = true
		}
	}
	if !reach[0] {
		return nil, fmt.Errorf("%w: entry unreachable", errLower)
	}

	starts, err := blockStarts(insns, reach)
	if err != nil {
		return nil, err
	}
	blockIdx := make(map[int]int, len(starts))
	for i, pc := range starts {
		blockIdx[pc] = i
	}

	p := &irProg{blocks: make([]irBlock, len(starts)), maps: maps}
	for bi, startPC := range starts {
		endPC := len(insns)
		if bi+1 < len(starts) {
			endPC = starts[bi+1]
		}
		blk, err := lowerBlock(insns, startPC, endPC, blockIdx, reach, maps, facts)
		if err != nil {
			return nil, err
		}
		p.blocks[bi] = blk
	}
	return p, nil
}

// blockStarts returns the sorted instruction indices that begin basic
// blocks: the entry, every reachable jump target, and every reachable
// fall-through successor of a branch, exit, or unconditional jump.
// Unreachable instructions are never parsed and never become blocks.
func blockStarts(insns []Insn, reach []bool) ([]int, error) {
	set := map[int]bool{0: true}
	for i := 0; i < len(insns); i++ {
		if !reach[i] {
			continue
		}
		in := insns[i]
		if in.IsWide() {
			if i+1 >= len(insns) {
				return nil, fmt.Errorf("%w: truncated wide insn at %d", errLower, i)
			}
			i++
			continue
		}
		cls := in.Class()
		if cls != ClassJMP && cls != ClassJMP32 {
			continue
		}
		op := in.Op & 0xf0
		switch op {
		case JmpCall:
			continue
		case JmpExit:
			if i+1 < len(insns) && reach[i+1] {
				set[i+1] = true
			}
			continue
		}
		t := i + 1 + int(in.Off)
		if t < 0 || t >= len(insns) {
			return nil, fmt.Errorf("%w: jump target %d out of range", errLower, t)
		}
		if t <= i {
			return nil, fmt.Errorf("%w: back edge %d -> %d", errLower, i, t)
		}
		if reach[t] {
			set[t] = true
		}
		if i+1 < len(insns) && reach[i+1] {
			set[i+1] = true
		}
	}
	starts := make([]int, 0, len(set))
	for pc := range set {
		starts = append(starts, pc)
	}
	sort.Ints(starts)
	return starts, nil
}

func lowerBlock(insns []Insn, startPC, endPC int, blockIdx map[int]int, reach []bool, maps []Map, facts *progFacts) (irBlock, error) {
	var blk irBlock
	succ := func(pc int) (int, error) {
		bi, ok := blockIdx[pc]
		if !ok {
			return 0, fmt.Errorf("%w: successor %d is not a block start", errLower, pc)
		}
		return bi, nil
	}

	pc := startPC
	for pc < endPC {
		in := insns[pc]
		blk.insns++

		switch {
		case in.IsWide():
			var v uint64
			if in.Src == PseudoMapFD {
				v = mapHandleBase | uint64(uint32(in.Imm))
			} else {
				v = uint64(uint32(insns[pc+1].Imm))<<32 | uint64(uint32(in.Imm))
			}
			blk.ops = append(blk.ops, irInsn{kind: irMovImm, dst: in.Dst, imm: int64(v), origPC: pc})
			pc += 2
			continue

		case in.Class() == ClassALU64 || in.Class() == ClassALU:
			blk.ops = append(blk.ops, lowerALU(in, pc))
			pc++
			continue

		case in.Class() == ClassLDX:
			size := sizeBytes(in.Op & 0x18)
			op := irInsn{kind: irLoadDyn, dst: in.Dst, src: in.Src, off: int64(in.Off), size: size, origPC: pc}
			if f := memFactAt(facts, pc); f != nil {
				switch f.kind {
				case kindCtx:
					op = irInsn{kind: irLoadCtx, dst: in.Dst, off: f.off + int64(in.Off), size: size, origPC: pc}
				case kindStack:
					op = irInsn{kind: irLoadStack, dst: in.Dst, off: f.off + int64(in.Off), size: size, origPC: pc}
				}
			}
			blk.ops = append(blk.ops, op)
			pc++
			continue

		case in.Class() == ClassSTX:
			size := sizeBytes(in.Op & 0x18)
			op := irInsn{kind: irStoreDyn, dst: in.Dst, src: in.Src, off: int64(in.Off), size: size, origPC: pc}
			if f := memFactAt(facts, pc); f != nil && f.kind == kindStack {
				op = irInsn{kind: irStoreStack, src: in.Src, off: f.off + int64(in.Off), size: size, origPC: pc}
			}
			blk.ops = append(blk.ops, op)
			pc++
			continue

		case in.Class() == ClassST:
			size := sizeBytes(in.Op & 0x18)
			imm := int64(in.Imm)
			op := irInsn{kind: irStoreDynImm, dst: in.Dst, off: int64(in.Off), size: size, imm: imm, origPC: pc}
			if f := memFactAt(facts, pc); f != nil && f.kind == kindStack {
				op = irInsn{kind: irStoreStackImm, off: f.off + int64(in.Off), size: size, imm: imm, origPC: pc}
			}
			blk.ops = append(blk.ops, op)
			pc++
			continue

		case in.Class() == ClassJMP || in.Class() == ClassJMP32:
			op := in.Op & 0xf0
			switch op {
			case JmpExit:
				blk.term = irTerm{kind: termExit, origPC: pc}
				return blk, nil
			case JmpCall:
				blk.ops = append(blk.ops, lowerCall(in, pc, maps, facts))
				pc++
				continue
			case JmpA:
				t, err := succ(pc + 1 + int(in.Off))
				if err != nil {
					return blk, err
				}
				blk.term = irTerm{kind: termJump, taken: t, origPC: pc}
				return blk, nil
			default:
				tpc, fpc := pc+1+int(in.Off), pc+1
				// Defensive: today's verifier explores both arms of every
				// branch it reaches, so both successors of a reachable
				// branch are reachable. Should it ever prune statically
				// decided branches, the unexplored arm is proven dead on
				// every path and the branch lowers to the jump it always
				// takes.
				if fpc >= len(insns) || !reach[fpc] {
					t, err := succ(tpc)
					if err != nil {
						return blk, err
					}
					blk.term = irTerm{kind: termJump, taken: t, origPC: pc}
					return blk, nil
				}
				if !reach[tpc] {
					t, err := succ(fpc)
					if err != nil {
						return blk, err
					}
					blk.term = irTerm{kind: termJump, taken: t, origPC: pc}
					return blk, nil
				}
				taken, err := succ(tpc)
				if err != nil {
					return blk, err
				}
				fall, err := succ(fpc)
				if err != nil {
					return blk, err
				}
				blk.term = irTerm{
					kind:   termBranch,
					op:     op,
					is64:   in.Class() == ClassJMP,
					useReg: in.Op&0x08 == SrcX,
					dst:    in.Dst,
					src:    in.Src,
					imm:    int64(in.Imm),
					taken:  taken,
					fall:   fall,
					origPC: pc,
				}
				return blk, nil
			}

		default:
			return blk, fmt.Errorf("%w: op=%#x at %d", errLower, in.Op, pc)
		}
	}

	// The block ran into the next block's start: synthesize a fallthrough
	// jump (no bytecode instruction corresponds to it, so insns is not
	// incremented).
	t, err := succ(endPC)
	if err != nil {
		return blk, err
	}
	blk.term = irTerm{kind: termJump, taken: t, origPC: endPC}
	return blk, nil
}

func memFactAt(facts *progFacts, pc int) *memFact {
	if facts == nil || pc >= len(facts.mem) {
		return nil
	}
	f := &facts.mem[pc]
	if !f.seen || !f.ok {
		return nil
	}
	return f
}

func callFactAt(facts *progFacts, pc int) *callFact {
	if facts == nil || pc >= len(facts.call) {
		return nil
	}
	f := &facts.call[pc]
	if !f.seen || !f.ok {
		return nil
	}
	return f
}

func lowerALU(in Insn, pc int) irInsn {
	op := in.Op & 0xf0
	is64 := in.Class() == ClassALU64
	useReg := in.Op&0x08 == SrcX
	if op == ALUMov {
		if !useReg {
			v := uint64(int64(in.Imm))
			if !is64 {
				v = uint64(uint32(v))
			}
			return irInsn{kind: irMovImm, dst: in.Dst, imm: int64(v), origPC: pc}
		}
		if is64 {
			return irInsn{kind: irMovReg, dst: in.Dst, src: in.Src, origPC: pc}
		}
	}
	return irInsn{
		kind:   irALU,
		aluOp:  op,
		is64:   is64,
		useReg: useReg,
		dst:    in.Dst,
		src:    in.Src,
		imm:    int64(in.Imm),
		origPC: pc,
	}
}

// lowerCall inlines a helper when the verifier facts pin its arguments
// down; otherwise it keeps the generic vm.call path, which is
// bit-identical to the interpreter.
func lowerCall(in Insn, pc int, maps []Map, facts *progFacts) irInsn {
	id := HelperID(in.Imm)
	generic := irInsn{kind: irHelper, helper: id, origPC: pc}
	switch id {
	case HelperKtimeGetNs:
		return irInsn{kind: irKtime, origPC: pc}
	case HelperGetSmpProcessorID:
		return irInsn{kind: irSmpID, origPC: pc}
	case HelperGetPrandomU32:
		return irInsn{kind: irPrandom, origPC: pc}
	}
	f := callFactAt(facts, pc)
	if f == nil {
		return generic
	}
	stackArg := func(i int) (int64, bool) {
		a := f.args[i]
		return a.off, a.kind == kindStack
	}
	mapArg := func(i int) (int, bool) {
		a := f.args[i]
		if a.kind != kindMapPtr || a.mapIdx < 0 || a.mapIdx >= len(maps) {
			return 0, false
		}
		return a.mapIdx, true
	}
	constArg := func(i int) (int64, bool) {
		a := f.args[i]
		return a.val, a.kind == kindScalar && a.known
	}
	switch id {
	case HelperPerfEventOutput:
		// r1=ctx, r2=flags, r3=data ptr, r4=size. The proof already
		// bounds [off, off+size) within the initialized stack.
		off, okOff := stackArg(2)
		size, okSize := constArg(3)
		if okOff && okSize && size >= 0 && off >= 0 && off+size <= StackSize {
			return irInsn{kind: irPerfEmitStack, off: off, size: size, origPC: pc}
		}
	case HelperMapLookupElem:
		idx, okMap := mapArg(0)
		off, okKey := stackArg(1)
		if okMap && okKey {
			ks := int64(maps[idx].KeySize())
			if off >= 0 && off+ks <= StackSize {
				return irInsn{kind: irMapLookupStack, mapIdx: idx, off: off, size: ks, origPC: pc}
			}
		}
	case HelperMapDeleteElem:
		idx, okMap := mapArg(0)
		off, okKey := stackArg(1)
		if okMap && okKey {
			ks := int64(maps[idx].KeySize())
			if off >= 0 && off+ks <= StackSize {
				return irInsn{kind: irMapDeleteStack, mapIdx: idx, off: off, size: ks, origPC: pc}
			}
		}
	case HelperMapUpdateElem:
		idx, okMap := mapArg(0)
		keyOff, okKey := stackArg(1)
		valOff, okVal := stackArg(2)
		flags, okFlags := constArg(3)
		if okMap && okKey && okVal && okFlags {
			ks := int64(maps[idx].KeySize())
			vs := int64(maps[idx].ValueSize())
			if keyOff >= 0 && keyOff+ks <= StackSize && valOff >= 0 && valOff+vs <= StackSize {
				return irInsn{kind: irMapUpdateStack, mapIdx: idx, off: keyOff, size: ks,
					valOff: valOff, flags: uint64(flags), origPC: pc}
			}
		}
	case HelperMapIncElem:
		// r1=map, r2=key ptr, r3=delta (runtime), r4=value offset (const).
		idx, okMap := mapArg(0)
		keyOff, okKey := stackArg(1)
		valOff, okOff := constArg(3)
		if okMap && okKey && okOff {
			ks := int64(maps[idx].KeySize())
			if keyOff >= 0 && keyOff+ks <= StackSize &&
				valOff >= 0 && valOff+8 <= int64(maps[idx].ValueSize()) {
				return irInsn{kind: irMapIncStack, mapIdx: idx, off: keyOff, size: ks,
					valOff: valOff, origPC: pc}
			}
		}
	case HelperHistObserve:
		// r1=map, r2=sample (runtime). The map pointer is the only static
		// argument, so inlining needs nothing from the stack.
		if idx, okMap := mapArg(0); okMap {
			return irInsn{kind: irHistObserve, mapIdx: idx, origPC: pc}
		}
	}
	return generic
}
