package ebpf

import (
	"errors"
	"testing"
)

// --- Loading -------------------------------------------------------------

func mustLoad(t *testing.T, insns []Insn, maps []Map) *Program {
	t.Helper()
	p, err := Load(ProgramSpec{Name: t.Name(), Type: ProgTypeKprobe, Insns: insns, Maps: maps, CtxSize: 64})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return p
}

func trivialInsns() []Insn {
	return []Insn{Mov64Imm(R0, 42), Exit()}
}

func TestTierDefaultsToOptimized(t *testing.T) {
	p := mustLoad(t, trivialInsns(), nil)
	if p.Tier() != TierOptimized {
		t.Fatalf("default tier = %v, want %v", p.Tier(), TierOptimized)
	}
}

// TestUnreachableTailStillLowers pins the fuzz-found case where the
// verifier accepts dead code after exit (it proves nothing about it) and
// lowering must skip it rather than fail Load.
func TestUnreachableTailStillLowers(t *testing.T) {
	insns := []Insn{
		Mov64Imm(R0, 7),
		Exit(),
		LoadMem(R3, R4, 100, SizeB), // unreachable garbage: uninit regs, wild offset
	}
	p := mustLoad(t, insns, nil)
	r0, _, err := p.Run(make([]byte, 64), &testEnv{})
	if err != nil || r0 != 7 {
		t.Fatalf("run: r0=%d err=%v", r0, err)
	}
}

// TestJumpGapStillLowers covers the other reachability shape: dead code
// sitting between an unconditional jump and its target, which the
// verifier skips over without proving anything about it.
func TestJumpGapStillLowers(t *testing.T) {
	insns := []Insn{
		Mov64Imm(R0, 3),
		Ja(1),            // skips insn 2
		Mov64Reg(R0, R9), // unreachable: would be an uninit read
		Exit(),
	}
	p := mustLoad(t, insns, nil)
	for name, run := range map[string]func([]byte, Env) (uint64, ExecStats, error){
		"interp": p.RunInterpreted, "optimized": p.Run,
	} {
		r0, _, err := run(make([]byte, 64), &testEnv{})
		if err != nil || r0 != 3 {
			t.Fatalf("%s: r0=%d err=%v", name, r0, err)
		}
	}
}

// --- Error chain identity -------------------------------------------------
//
// Verified programs never fault at runtime, so the error paths are only
// reachable through the engine internals on unverified instruction
// streams. These are regression tests for the %s→%w wrapping fix: the
// sentinel identity must survive each engine's "at insn" context wrapping
// so callers can dispatch on errors.Is.

// faultingEngines runs unverified insns through both engines' internals
// (the optimized tier via nil-facts lowering, which keeps every access
// fully checked) and returns the per-engine errors.
func faultingEngines(t *testing.T, insns []Insn, wantOptimized bool) map[string]error {
	t.Helper()
	errs := map[string]error{}
	ctx := make([]byte, 64)

	_, _, err := run(insns, nil, ctx, &testEnv{})
	errs["interp"] = err

	ir, lerr := lowerProgram(insns, nil, nil)
	if lerr != nil {
		if wantOptimized {
			t.Fatalf("lower: %v", lerr)
		}
		return errs
	}
	optimize(ir)
	opt, eerr := emitProgram(ir)
	if eerr != nil {
		t.Fatalf("emit: %v", eerr)
	}
	_, _, err = runOptimized(opt, nil, ctx, &testEnv{})
	errs["optimized"] = err
	return errs
}

func TestErrorChainMemFault(t *testing.T) {
	// Dereference a scalar: every engine must fault with ErrRuntimeMem.
	insns := []Insn{
		Mov64Imm(R1, 0x1234),
		LoadMem(R0, R1, 0, SizeW),
		Exit(),
	}
	for name, err := range faultingEngines(t, insns, true) {
		if !errors.Is(err, ErrRuntimeMem) {
			t.Errorf("%s: err %v does not wrap ErrRuntimeMem", name, err)
		}
	}
}

func TestErrorChainStepBudget(t *testing.T) {
	// A self-loop exhausts the instruction budget. Lowering rejects back
	// edges, so only the interpreter reaches the budget error.
	insns := []Insn{
		Mov64Imm(R0, 0),
		Ja(-1),
		Exit(),
	}
	errs := faultingEngines(t, insns, false)
	if !errors.Is(errs["interp"], ErrRuntimeSteps) {
		t.Errorf("interp: err %v does not wrap ErrRuntimeSteps", errs["interp"])
	}
	if _, ok := errs["optimized"]; ok {
		t.Error("optimized tier lowered a back edge")
	}
}

func TestErrorChainBadHelper(t *testing.T) {
	insns := []Insn{
		Call(HelperID(99)),
		Mov64Imm(R0, 0),
		Exit(),
	}
	for name, err := range faultingEngines(t, insns, true) {
		if !errors.Is(err, ErrBadHelper) {
			t.Errorf("%s: err %v does not wrap ErrBadHelper", name, err)
		}
	}
}

func TestErrorChainBadMapRef(t *testing.T) {
	// A map handle pointing past the program's map table.
	fd := LoadMapFD(R1, 3) // only map indices < len(maps)=0 exist
	insns := append(fd[:],
		Mov64Reg(R2, R10),
		ALU64Imm(ALUAdd, R2, -4),
		Call(HelperMapLookupElem),
		Mov64Imm(R0, 0),
		Exit(),
	)
	for name, err := range faultingEngines(t, insns, true) {
		if !errors.Is(err, ErrBadMapRef) {
			t.Errorf("%s: err %v does not wrap ErrBadMapRef", name, err)
		}
	}
}

// --- ExecStats parity -----------------------------------------------------

// runAllTiers executes a loaded program on each engine with its own
// deterministic env and returns the results keyed by tier name.
type tierRun struct {
	r0    uint64
	stats ExecStats
	env   *testEnv
}

func runAllTiers(t *testing.T, p *Program, ctx []byte) map[string]tierRun {
	t.Helper()
	out := map[string]tierRun{}
	for name, run := range map[string]func([]byte, Env) (uint64, ExecStats, error){
		"interp": p.RunInterpreted, "optimized": p.Run,
	} {
		env := &testEnv{time: 99, cpu: 1, perfCap: 0}
		r0, stats, err := run(ctx, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tierRun{r0: r0, stats: stats, env: env}
	}
	return out
}

func assertTierParity(t *testing.T, runs map[string]tierRun) {
	t.Helper()
	ref, got := runs["interp"], runs["optimized"]
	if got.r0 != ref.r0 {
		t.Errorf("optimized: r0 = %#x, interp %#x", got.r0, ref.r0)
	}
	if got.stats != ref.stats {
		t.Errorf("optimized: stats = %+v, interp %+v", got.stats, ref.stats)
	}
	if len(got.env.perf) != len(ref.env.perf) {
		t.Errorf("optimized: %d perf events, interp %d", len(got.env.perf), len(ref.env.perf))
	}
}

func TestStatsParityWideInsns(t *testing.T) {
	var insns []Insn
	for i := 0; i < 5; i++ {
		w := LoadImm64(Reg(R1+Reg(i)), 0x1_0000_0000+int64(i))
		insns = append(insns, w[:]...)
	}
	insns = append(insns, Mov64Reg(R0, R5), Exit())
	p := mustLoad(t, insns, nil)
	runs := runAllTiers(t, p, make([]byte, 64))
	assertTierParity(t, runs)
	// A wide instruction counts once, like the other tiers' dispatch.
	if want := 5 + 2; runs["optimized"].stats.Insns != want {
		t.Errorf("Insns = %d, want %d", runs["optimized"].stats.Insns, want)
	}
}

func TestStatsParityHelperHeavy(t *testing.T) {
	insns := []Insn{
		Call(HelperKtimeGetNs),
		Mov64Reg(R6, R0),
		Call(HelperGetSmpProcessorID),
		ALU64Reg(ALUAdd, R6, R0),
		Call(HelperGetPrandomU32),
		ALU64Reg(ALUAdd, R6, R0),
		Call(HelperKtimeGetNs),
		ALU64Reg(ALUAdd, R6, R0),
		Mov64Reg(R0, R6),
		Exit(),
	}
	p := mustLoad(t, insns, nil)
	runs := runAllTiers(t, p, make([]byte, 64))
	assertTierParity(t, runs)
	if runs["optimized"].stats.HelperCalls != 4 {
		t.Errorf("HelperCalls = %d, want 4", runs["optimized"].stats.HelperCalls)
	}
}

func TestStatsParityPerfEmit(t *testing.T) {
	insns := []Insn{
		StoreImm(R10, -8, 0x11223344, SizeDW),
		Mov64Reg(R3, R10),
		ALU64Imm(ALUAdd, R3, -8),
		Mov64Imm(R4, 8),
		Mov64Imm(R2, 0),
		Call(HelperPerfEventOutput),
		Mov64Imm(R0, 0),
		Exit(),
	}
	p := mustLoad(t, insns, nil)
	runs := runAllTiers(t, p, make([]byte, 64))
	assertTierParity(t, runs)
	opt := runs["optimized"]
	if opt.stats.PerfBytes != 8 || len(opt.env.perf) != 1 {
		t.Errorf("PerfBytes=%d perf events=%d, want 8 and 1", opt.stats.PerfBytes, len(opt.env.perf))
	}
}

func TestStatsParityStepLimitEdge(t *testing.T) {
	// A straight line of exactly MaxInsns instructions: the largest
	// program the verifier accepts must complete on every tier with an
	// identical count.
	insns := make([]Insn, 0, MaxInsns)
	for i := 0; i < MaxInsns-2; i++ {
		insns = append(insns, Mov64Imm(R0, int32(i)))
	}
	insns = append(insns, ALU64Imm(ALUAdd, R0, 1), Exit())
	p := mustLoad(t, insns, nil)
	runs := runAllTiers(t, p, make([]byte, 64))
	assertTierParity(t, runs)
	if runs["optimized"].stats.Insns != MaxInsns {
		t.Errorf("Insns = %d, want %d", runs["optimized"].stats.Insns, MaxInsns)
	}
}

func TestStatsParityBranchBothPaths(t *testing.T) {
	insns := []Insn{
		LoadMem(R2, R1, 0, SizeW),
		JumpImm(JmpEq, R2, 5, 2),
		Mov64Imm(R0, 100),
		Exit(),
		Mov64Imm(R0, 200),
		Exit(),
	}
	p := mustLoad(t, insns, nil)
	for _, first := range []byte{0, 5} {
		ctx := make([]byte, 64)
		ctx[0] = first
		runs := runAllTiers(t, p, ctx)
		assertTierParity(t, runs)
		want := uint64(100)
		if first == 5 {
			want = 200
		}
		if runs["optimized"].r0 != want {
			t.Errorf("ctx[0]=%d: r0 = %d, want %d", first, runs["optimized"].r0, want)
		}
	}
}

// --- Optimization pass unit tests ----------------------------------------

// lowerVerified runs the real pipeline (verify for facts, lower,
// optimize) and returns the IR for structural assertions.
func lowerVerified(t *testing.T, insns []Insn, maps []Map) *irProg {
	t.Helper()
	facts, err := verifyProgram(insns, maps, 64)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	ir, err := lowerProgram(insns, maps, facts)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	optimize(ir)
	return ir
}

func TestOptConstFolding(t *testing.T) {
	ir := lowerVerified(t, []Insn{
		Mov64Imm(R0, 2),
		ALU64Imm(ALUAdd, R0, 3),
		ALU64Imm(ALUMul, R0, 10),
		Exit(),
	}, nil)
	ops := ir.blocks[0].ops
	if len(ops) != 1 || ops[0].kind != irMovImm || ops[0].imm != 50 {
		t.Fatalf("constant chain did not fold to one mov: %+v", ops)
	}
}

func TestOptDeadWriteElim(t *testing.T) {
	ir := lowerVerified(t, []Insn{
		Mov64Imm(R3, 7), // dead: R3 is never read
		Mov64Imm(R0, 1),
		Exit(),
	}, nil)
	for _, op := range ir.blocks[0].ops {
		if op.dst == R3 {
			t.Fatalf("dead write to r3 survived: %+v", ir.blocks[0].ops)
		}
	}
}

func TestOptKeepsDynLoadWithDeadDst(t *testing.T) {
	// With nil facts the load stays dynamic; it may fault, so DSE must
	// keep it even though R2 is dead.
	insns := []Insn{
		Mov64Imm(R1, 0x1234),
		LoadMem(R2, R1, 0, SizeDW),
		Mov64Imm(R0, 1),
		Exit(),
	}
	ir, err := lowerProgram(insns, nil, nil)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	optimize(ir)
	found := false
	for _, op := range ir.blocks[0].ops {
		if op.kind == irLoadDyn {
			found = true
		}
	}
	if !found {
		t.Fatalf("faulting dynamic load was deleted: %+v", ir.blocks[0].ops)
	}
}

func TestOptCopyBatchMerging(t *testing.T) {
	// Two adjacent 4-byte ctx→stack copies merge into one 8-byte batch
	// descriptor (the record-build shape).
	ir := lowerVerified(t, []Insn{
		LoadMem(R2, R1, 0, SizeW),
		StoreMem(R10, -16, R2, SizeW),
		LoadMem(R2, R1, 4, SizeW),
		StoreMem(R10, -12, R2, SizeW),
		Mov64Imm(R0, 0),
		Exit(),
	}, nil)
	ops := ir.blocks[0].ops
	var batch *irInsn
	for i := range ops {
		if ops[i].kind == irCopyBatch {
			batch = &ops[i]
		}
	}
	if batch == nil {
		t.Fatalf("no irCopyBatch emitted: %+v", ops)
	}
	if len(batch.batch) != 1 || batch.batch[0].code != mcCopy88 {
		t.Fatalf("adjacent copies did not merge to one 8-byte descriptor: %+v", batch.batch)
	}
}

func TestOptBranchFusion(t *testing.T) {
	// The filter shape: a 32-bit ctx load consumed only by the branch
	// folds into the terminator.
	ir := lowerVerified(t, []Insn{
		LoadMem(R2, R1, 8, SizeW),
		JumpImm(JmpEq, R2, 17, 2),
		Mov64Imm(R0, 0),
		Exit(),
		Mov64Imm(R0, 1),
		Exit(),
	}, nil)
	blk := ir.blocks[0]
	if !blk.term.ctxFused || blk.term.ctxOff != 8 {
		t.Fatalf("branch did not fuse ctx load: term %+v ops %+v", blk.term, blk.ops)
	}
	if len(blk.ops) != 0 {
		t.Fatalf("fused load should leave no ops: %+v", blk.ops)
	}
}
