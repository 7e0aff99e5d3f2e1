package ebpf

import (
	"fmt"
)

// ProgType declares where a program may attach; it mirrors the paper's
// Section III-B attach surface (kprobes, kretprobes, kernel tracepoints,
// network devices / raw sockets).
type ProgType int

// Program types.
const (
	ProgTypeKprobe ProgType = iota + 1
	ProgTypeKretprobe
	ProgTypeTracepoint
	ProgTypeSocketFilter
)

func (t ProgType) String() string {
	switch t {
	case ProgTypeKprobe:
		return "kprobe"
	case ProgTypeKretprobe:
		return "kretprobe"
	case ProgTypeTracepoint:
		return "tracepoint"
	case ProgTypeSocketFilter:
		return "socket_filter"
	}
	return fmt.Sprintf("progtype(%d)", int(t))
}

// ProgramSpec is the unverified description of an eBPF program: its
// instructions, the maps its LoadMapFD pseudo-instructions reference by
// index, and the size of the context structure it will receive.
type ProgramSpec struct {
	Name    string
	Type    ProgType
	Insns   []Insn
	Maps    []Map
	CtxSize int
}

// Tier identifies the execution engine Run uses. Every loaded program
// runs on the optimized tier; the interpreter behind RunInterpreted is a
// reference oracle for differential testing, not a tier Run can select.
type Tier uint8

// TierOptimized is the IR-optimized closure tier.
const TierOptimized Tier = 0

func (t Tier) String() string {
	if t == TierOptimized {
		return "optimized"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// Program is a verified, executable program. Obtain one via Load. Run
// executes the optimized tier; RunInterpreted executes the reference
// interpreter.
type Program struct {
	name    string
	typ     ProgType
	insns   []Insn
	maps    []Map
	ctxSize int
	opt     *optProg
}

// Load verifies the spec and compiles it to the optimized tier: the
// program lowers through the IR using the facts the verifier proved, is
// optimized, and is emitted as closures. Lowering is total over
// verifier-accepted programs, so a decline at any stage is a load error.
// Instruction and map slices are copied, so later mutation of the spec
// does not affect the loaded program.
func Load(spec ProgramSpec) (*Program, error) {
	if spec.CtxSize <= 0 {
		return nil, fmt.Errorf("ebpf: load %q: context size must be positive, got %d", spec.Name, spec.CtxSize)
	}
	insns := make([]Insn, len(spec.Insns))
	copy(insns, spec.Insns)
	maps := make([]Map, len(spec.Maps))
	copy(maps, spec.Maps)
	facts, err := verifyProgram(insns, maps, spec.CtxSize)
	if err != nil {
		return nil, fmt.Errorf("ebpf: load %q: %w", spec.Name, err)
	}
	ir, err := lowerProgram(insns, maps, facts)
	if err != nil {
		return nil, fmt.Errorf("ebpf: load %q: %w", spec.Name, err)
	}
	optimize(ir)
	opt, err := emitProgram(ir)
	if err != nil {
		return nil, fmt.Errorf("ebpf: load %q: %w", spec.Name, err)
	}
	return &Program{
		name:    spec.Name,
		typ:     spec.Type,
		insns:   insns,
		maps:    maps,
		ctxSize: spec.CtxSize,
		opt:     opt,
	}, nil
}

// Name returns the program name.
func (p *Program) Name() string { return p.name }

// Type returns the attach type.
func (p *Program) Type() ProgType { return p.typ }

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.insns) }

// Maps returns the program's map table. The slice is a copy; the maps
// themselves are shared, which is how userspace reads program state.
func (p *Program) Maps() []Map {
	out := make([]Map, len(p.maps))
	copy(out, p.maps)
	return out
}

// CtxSize returns the expected context size in bytes.
func (p *Program) CtxSize() int { return p.ctxSize }

// Tier reports the engine Run executes on: TierOptimized for every
// loaded program.
func (p *Program) Tier() Tier { return TierOptimized }

func (p *Program) checkRun(ctx []byte) error {
	if p == nil || len(p.insns) == 0 {
		return ErrNotLoaded
	}
	if len(ctx) != p.ctxSize {
		return fmt.Errorf("ebpf: run %q: ctx is %d bytes, want %d", p.name, len(ctx), p.ctxSize)
	}
	return nil
}

// Run executes the program on the optimized tier over ctx with env
// supplying helpers. It returns the program's R0 and execution
// statistics. ctx must be exactly CtxSize bytes. Results are
// bit-identical to RunInterpreted (enforced by differential property and
// fuzz tests).
func (p *Program) Run(ctx []byte, env Env) (uint64, ExecStats, error) {
	if err := p.checkRun(ctx); err != nil {
		return 0, ExecStats{}, err
	}
	r0, stats, err := runOptimized(p.opt, p.maps, ctx, env)
	if err != nil {
		return 0, stats, fmt.Errorf("ebpf: run %q: %w", p.name, err)
	}
	return r0, stats, nil
}

// RunInterpreted executes the program through the plain instruction
// interpreter. Results are identical to Run; this exists for differential
// testing and for benchmarking the optimized tier's benefit.
func (p *Program) RunInterpreted(ctx []byte, env Env) (uint64, ExecStats, error) {
	if err := p.checkRun(ctx); err != nil {
		return 0, ExecStats{}, err
	}
	r0, stats, err := run(p.insns, p.maps, ctx, env)
	if err != nil {
		return 0, stats, fmt.Errorf("ebpf: run %q: %w", p.name, err)
	}
	return r0, stats, nil
}
