package ebpf

import (
	"math/rand"
	"testing"
)

// TestOptimizedMatchesInterpreter is the differential property: for every
// verified random program and random context, the optimized tier and the
// interpreter must produce the same R0, the same instruction count, and
// the same side effects.
func TestOptimizedMatchesInterpreter(t *testing.T) {
	const ctxSize = 64
	rng := rand.New(rand.NewSource(9))
	m, err := NewHashMap(4, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	maps := []Map{m}

	accepted := 0
	for tried := 0; tried < 20000 && accepted < 400; tried++ {
		insns := randomProgram(rng)
		if Verify(insns, maps, ctxSize) != nil {
			continue
		}
		accepted++
		prog, err := Load(ProgramSpec{
			Name: "diff", Type: ProgTypeKprobe, Insns: insns, Maps: maps, CtxSize: ctxSize,
		})
		if err != nil {
			t.Fatalf("load verified program: %v", err)
		}
		ctx := make([]byte, ctxSize)
		rng.Read(ctx)
		envA := &testEnv{time: 42}
		envB := &testEnv{time: 42}
		r0a, statsA, errA := prog.Run(ctx, envA)
		r0b, statsB, errB := prog.RunInterpreted(ctx, envB)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("error divergence: opt=%v interp=%v\n%s", errA, errB, dump(insns))
		}
		if r0a != r0b {
			t.Fatalf("r0 divergence: opt=%#x interp=%#x\n%s", r0a, r0b, dump(insns))
		}
		if statsA.Insns != statsB.Insns || statsA.HelperCalls != statsB.HelperCalls {
			t.Fatalf("stats divergence: opt=%+v interp=%+v\n%s", statsA, statsB, dump(insns))
		}
	}
	if accepted < 50 {
		t.Fatalf("only %d programs verified", accepted)
	}
}

// TestOptimizedSideEffectsMatch runs a stateful program (map updates +
// perf output) through both engines and compares observable state.
func TestOptimizedSideEffectsMatch(t *testing.T) {
	run := func(exec func(p *Program, ctx []byte, env Env) (uint64, ExecStats, error)) ([][]byte, uint64) {
		m, err := NewHashMap(4, 8, 16)
		if err != nil {
			t.Fatal(err)
		}
		src := `
			mov r6, r1
			ldxw r2, [r6+0]
			stxw [r10-4], r2
			ld_map_fd r1, counts
			mov r2, r10
			add r2, -4
			call map_lookup_elem
			jne r0, 0, found
			stdw [r10-16], 1
			ld_map_fd r1, counts
			mov r2, r10
			add r2, -4
			mov r3, r10
			add r3, -16
			mov r4, 0
			call map_update_elem
			ja emit
		found:
			ldxdw r3, [r0+0]
			add r3, 1
			stxdw [r0+0], r3
		emit:
			stdw [r10-8], 7
			mov r1, r6
			mov r2, 0
			mov r3, r10
			add r3, -8
			mov r4, 8
			call perf_event_output
			mov r0, 0
			exit
		`
		insns, table := MustAssemble(src, map[string]Map{"counts": m})
		p, err := Load(ProgramSpec{Name: "fx", Type: ProgTypeKprobe, Insns: insns, Maps: table, CtxSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		env := &testEnv{}
		ctx := []byte{9, 0, 0, 0, 0, 0, 0, 0}
		for i := 0; i < 5; i++ {
			if _, _, err := exec(p, ctx, env); err != nil {
				t.Fatal(err)
			}
		}
		v, _ := m.Lookup([]byte{9, 0, 0, 0})
		var count uint64
		for i := 7; i >= 0; i-- {
			count = count<<8 | uint64(v[i])
		}
		return env.perf, count
	}
	perfO, countO := run(func(p *Program, ctx []byte, env Env) (uint64, ExecStats, error) {
		return p.Run(ctx, env)
	})
	perfI, countI := run(func(p *Program, ctx []byte, env Env) (uint64, ExecStats, error) {
		return p.RunInterpreted(ctx, env)
	})
	if countO != 5 || countI != 5 {
		t.Fatalf("counts: opt=%d interp=%d", countO, countI)
	}
	if len(perfO) != len(perfI) || len(perfO) != 5 {
		t.Fatalf("perf records: opt=%d interp=%d", len(perfO), len(perfI))
	}
}
