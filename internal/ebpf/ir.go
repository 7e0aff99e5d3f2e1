package ebpf

// This file defines the small SSA-ish intermediate representation behind
// the optimized execution tier. Verified bytecode is lowered (lower.go)
// into basic blocks of irInsns whose addressing has been resolved against
// the facts the verifier proved: a load whose base pointer is known to be
// the context or a fixed stack slot carries an absolute region offset and
// needs no runtime bounds check, while anything the proof could not pin
// down keeps the fully checked dynamic form. Optimization passes (opt.go)
// fold constants, propagate copies, delete dead register writes, and fuse
// common shapes (ctx-load + stack-store copies, ctx-load + branch
// filters). The emitter (emit.go) then turns each basic block into one
// chain of specialized Go closures.

// irKind discriminates IR operations.
type irKind uint8

const (
	// irMovImm sets dst to a 64-bit constant (also covers ld_imm64 and
	// ld_map_fd, whose handle encoding is a compile-time constant).
	irMovImm irKind = iota
	// irMovReg copies src into dst.
	irMovReg
	// irALU is a generic ALU op evaluated through aluOp, bit-identical
	// to the interpreter.
	irALU
	// irLoadCtx loads size bytes from ctx[off] into dst, bounds proven.
	irLoadCtx
	// irLoadStack loads size bytes from stack[off] into dst, bounds
	// proven.
	irLoadStack
	// irLoadDyn is the fully checked load via a pointer register.
	irLoadDyn
	// irStoreStack stores size bytes of src at stack[off], bounds proven.
	irStoreStack
	// irStoreStackImm stores size bytes of a constant at stack[off].
	irStoreStackImm
	// irStoreDyn is the fully checked store via a pointer register.
	irStoreDyn
	// irStoreDynImm is the fully checked constant store.
	irStoreDynImm
	// irCopyCtxStack fuses a ctx load with the stack store that consumed
	// it: stack[off:off+size] = ctx[ctxOff:ctxOff+loadSize] (truncating
	// when size < loadSize). The intermediate register is gone.
	irCopyCtxStack
	// irHelper is a generic helper call through vm.call — full
	// interpreter semantics including caller-saved register poisoning.
	irHelper
	// irKtime, irSmpID, irPrandom inline the zero-argument helpers.
	irKtime
	irSmpID
	irPrandom
	// irPerfEmitStack inlines perf_event_output of a proved stack range:
	// the four argument registers are statically dead.
	irPerfEmitStack
	// irMapLookupStack inlines map_lookup_elem with the key at a proved
	// stack offset, passing a stack slice directly (no key copy).
	irMapLookupStack
	// irMapUpdateStack inlines map_update_elem with key/value at proved
	// stack offsets and constant flags.
	irMapUpdateStack
	// irMapDeleteStack inlines map_delete_elem with the key at a proved
	// stack offset.
	irMapDeleteStack
	// irMapIncStack inlines map_inc_elem with the key at a proved stack
	// offset and a verified constant value offset: one locked fetch-add
	// on the addressed counter lane, delta read from R3 at runtime.
	irMapIncStack
	// irHistObserve inlines hist_observe: a log2-bucket increment for
	// the sample in R2.
	irHistObserve
	// irCopyBatch executes a run of fused ctx-to-stack copies and constant
	// stack stores (the record-build shape) in one closure, driven by a
	// descriptor list instead of one closure per store.
	irCopyBatch
)

// memCopy is one descriptor in an irCopyBatch. code selects the
// specialized form; mcGeneric falls back to width-switched load/store.
type memCopy struct {
	code   uint8
	co, so int64  // ctx source / stack destination offsets
	imm    uint64 // constant stores
	ls, ss int64  // mcGeneric widths
}

// memCopy codes.
const (
	mcCopy44 uint8 = iota // stack u32 = ctx u32
	mcCopy88              // stack u64 = ctx u64
	mcCopy42              // stack u16 = trunc(ctx u32)
	mcCopy41              // stack u8  = trunc(ctx u32)
	mcImm8
	mcImm16
	mcImm32
	mcImm64
	mcGeneric
)

// irInsn is one IR operation. Field use depends on kind; origPC is the
// bytecode index it was lowered from, kept for error context.
type irInsn struct {
	kind     irKind
	aluOp    uint8 // irALU: operation bits
	is64     bool  // irALU: 64- vs 32-bit
	useReg   bool  // irALU: register vs immediate source
	dst, src Reg
	imm      int64 // constants; irALU immediate (pre-sign-extended)
	off      int64 // absolute region offset (static ops) or displacement (dyn ops)
	ctxOff   int64 // irCopyCtxStack: source ctx offset
	size     int64 // access width in bytes
	loadSize int64 // irCopyCtxStack: source width (>= size)
	mapIdx   int   // inlined map ops
	valOff   int64 // irMapUpdateStack: value stack offset
	flags    uint64
	helper   HelperID
	batch    []memCopy // irCopyBatch descriptors
	origPC   int
}

// irTermKind discriminates block terminators.
type irTermKind uint8

const (
	// termExit ends the program with R0 as the result.
	termExit irTermKind = iota
	// termJump transfers to block taken unconditionally (explicit ja or
	// a synthesized fallthrough into a jump target).
	termJump
	// termBranch is a conditional jump evaluated via jmpCond.
	termBranch
)

// irTerm ends a basic block. For termBranch, the left operand is either
// register dst or — when ctxFused — a 32-bit ctx load at ctxOff whose
// register became dead (the filter-check shape).
type irTerm struct {
	kind        irTermKind
	op          uint8 // jump operation bits
	is64        bool  // JMP vs JMP32 comparison width
	useReg      bool
	dst, src    Reg
	imm         int64 // pre-sign-extended immediate operand
	ctxFused    bool
	ctxOff      int64
	taken, fall int // successor block indices
	origPC      int
}

// irBlock is a straight-line run of operations plus a terminator. insns
// counts the original bytecode instructions the block covers (wide loads
// count one, matching the interpreter's ExecStats.Insns); the count is
// charged on block entry.
type irBlock struct {
	ops   []irInsn
	term  irTerm
	insns int
}

// irProg is a lowered program: blocks indexed densely, entry at block 0.
// All control-flow edges point to higher block indices (the verifier
// rejects back edges), which the optimizer's single-pass liveness
// analysis relies on.
type irProg struct {
	blocks []irBlock
	maps   []Map
}

// regMask is a register bit set used by liveness analysis.
type regMask uint16

func (m regMask) has(r Reg) bool   { return m&(1<<r) != 0 }
func (m *regMask) add(r Reg)       { *m |= 1 << r }
func (m *regMask) remove(r Reg)    { *m &^= 1 << r }
