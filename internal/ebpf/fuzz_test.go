package ebpf_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/ebpf"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
	"vnettracer/internal/vnet"
)

// maxFuzzInsns caps decoded program length: long garbage programs only
// slow exploration without reaching new verifier states.
const maxFuzzInsns = 512

// insnsFromBytes decodes 8-byte chunks into instructions, mirroring the
// kernel's bpf_insn layout closely enough that byte-level mutation
// explores opcodes, registers (including out-of-range ones — the upper
// nibbles reach 15), offsets, and immediates.
func insnsFromBytes(data []byte) []ebpf.Insn {
	n := len(data) / 8
	if n > maxFuzzInsns {
		n = maxFuzzInsns
	}
	out := make([]ebpf.Insn, n)
	for i := range out {
		d := data[i*8:]
		out[i] = ebpf.Insn{
			Op:  d[0],
			Dst: ebpf.Reg(d[1] & 0x0f),
			Src: ebpf.Reg(d[1] >> 4),
			Off: int16(binary.LittleEndian.Uint16(d[2:4])),
			Imm: int32(binary.LittleEndian.Uint32(d[4:8])),
		}
	}
	return out
}

func insnsToBytes(insns []ebpf.Insn) []byte {
	out := make([]byte, len(insns)*8)
	for i, ins := range insns {
		d := out[i*8:]
		d[0] = ins.Op
		d[1] = byte(ins.Dst&0x0f) | byte(ins.Src)<<4
		binary.LittleEndian.PutUint16(d[2:4], uint16(ins.Off))
		binary.LittleEndian.PutUint32(d[4:8], uint32(ins.Imm))
	}
	return out
}

func fuzzMaps(t *testing.T) []ebpf.Map {
	t.Helper()
	h, err := ebpf.NewHashMap(4, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ebpf.NewArrayMap(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ebpf.NewPerCPUArray(8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []ebpf.Map{h, a, p}
}

// fuzzEnv is a deterministic helper environment that records every
// observable side channel (perf stream, printk log): the execution
// engines must observe identical helper results and produce identical
// side effects for the differential check to be meaningful.
type fuzzEnv struct {
	ktime  uint64
	prand  uint32
	perf   []string
	printk []string
}

func (e *fuzzEnv) KtimeNs() uint64 { e.ktime += 1000; return e.ktime }

func (e *fuzzEnv) SMPProcessorID() uint32 { return 1 }

func (e *fuzzEnv) PrandomU32() uint32 { e.prand = e.prand*1664525 + 1013904223; return e.prand }

func (e *fuzzEnv) PerfEventOutput(data []byte) bool {
	// data may alias VM stack memory reused after the call; copy it.
	e.perf = append(e.perf, string(data))
	return true
}

func (e *fuzzEnv) TracePrintk(msg string) { e.printk = append(e.printk, msg) }

// fuzzSentinels are the error identities the engines must agree on.
// Comparing through errors.Is (rather than error presence or message
// text) is deliberate: it catches wrapping regressions where a tier
// breaks the chain with %v/%s and callers lose errors.Is matching.
var fuzzSentinels = []error{
	ebpf.ErrRuntimeMem,
	ebpf.ErrRuntimeSteps,
	ebpf.ErrBadOpcode,
	ebpf.ErrBadHelper,
	ebpf.ErrBadMapRef,
	ebpf.ErrNotLoaded,
}

// errIdentity classifies an error by which sentinel it wraps.
func errIdentity(err error) string {
	if err == nil {
		return "<nil>"
	}
	for _, s := range fuzzSentinels {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "<unclassified>"
}

// tierResult captures everything observable about one execution: the
// result register, execution statistics, error identity, final map
// contents, and the perf/printk side-effect streams.
type tierResult struct {
	r0     uint64
	stats  ebpf.ExecStats
	err    error
	maps   []string
	perf   []string
	printk []string
}

// dumpMaps renders final map state as sorted strings so deep comparison
// is order-independent.
func dumpMaps(maps []ebpf.Map) []string {
	var out []string
	for i, m := range maps {
		m.ForEach(func(k, v []byte) {
			out = append(out, fmt.Sprintf("map%d %x=%x", i, k, v))
		})
	}
	sort.Strings(out)
	return out
}

// engineRun executes a loaded program on one engine: (*ebpf.Program).Run
// for the optimized tier, (*ebpf.Program).RunInterpreted for the oracle.
type engineRun func(*ebpf.Program, []byte, ebpf.Env) (uint64, ebpf.ExecStats, error)

// runTier loads the program against fresh maps and executes it on one
// engine with a fresh deterministic env, so no state leaks between
// engines.
func runTier(t *testing.T, insns []ebpf.Insn, run engineRun) tierResult {
	t.Helper()
	maps := fuzzMaps(t)
	prog, err := ebpf.Load(ebpf.ProgramSpec{
		Name:    "fuzz",
		Type:    ebpf.ProgTypeKprobe,
		Insns:   insns,
		Maps:    maps,
		CtxSize: core.CtxSize,
	})
	if err != nil {
		// Every verifier-accepted program must load: the conditions that
		// abort lowering (back edges, bad targets, unknown opcodes) are
		// all verifier rejections too.
		t.Fatalf("Verify accepted but Load rejected: %v", err)
	}
	env := &fuzzEnv{}
	ctx := make([]byte, core.CtxSize)
	var res tierResult
	res.r0, res.stats, res.err = run(prog, ctx, env)
	res.maps = dumpMaps(maps)
	res.perf = env.perf
	res.printk = env.printk
	return res
}

// seedScript compiles a script spec into seed bytes, failing loudly so a
// compiler regression cannot silently drop fuzz coverage.
func seedScript(f *testing.F, spec script.Spec) []byte {
	f.Helper()
	insns, _, err := script.CompileToInsns(spec)
	if err != nil {
		f.Fatalf("compile seed script %q: %v", spec.Name, err)
	}
	return insnsToBytes(insns)
}

// FuzzVerifyProgram throws arbitrary instruction streams at the
// verifier. The verifier must reject malformed programs with an error —
// never panic, regardless of opcode garbage, out-of-range registers, or
// wild jump offsets. Programs it accepts are its soundness claim: each
// must load, and then executes as a two-way differential oracle — Run
// (the optimized tier) against RunInterpreted (the reference
// interpreter). Both must produce the same R0, the same execution
// statistics, the same error identity under errors.Is, and identical
// side effects (final map contents, perf event stream, printk log). Any
// divergence is a miscompile in the optimized tier.
func FuzzVerifyProgram(f *testing.F) {
	// Seed with real accepted programs: the trivial return, compiled
	// scripts (the production codepath, covering the record fast path and
	// the map-backed count/cpuhist actions), and small map/helper/branch
	// exercises — plus near-miss mutations the verifier must reject.
	f.Add(insnsToBytes([]ebpf.Insn{
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	}))
	f.Add(seedScript(f, script.Spec{
		Name:    "fuzzseed",
		TPID:    7,
		Attach:  core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg},
		Filter:  script.Filter{Proto: vnet.ProtoUDP},
		Actions: []script.Action{script.ActionRecord},
	}))
	f.Add(seedScript(f, script.Spec{
		Name:    "fuzzseed-count",
		TPID:    9,
		Attach:  core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg},
		Filter:  script.Filter{Proto: vnet.ProtoUDP, DstPort: 9000},
		Actions: []script.Action{script.ActionCount, script.ActionCPUHist},
	}))
	f.Add(seedScript(f, script.Spec{
		Name:    "fuzzseed-agg",
		TPID:    11,
		Attach:  core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg},
		Filter:  script.Filter{Proto: vnet.ProtoUDP},
		Actions: []script.Action{script.ActionCount, script.ActionCPUHist, script.ActionHist, script.ActionFlowCount},
	}))
	// Aggregation fast-path helpers, hand-built: map_inc_elem fetch-adds a
	// delta into map0's 8-byte lane, then hist_observe buckets a sample
	// into the same map. Both leave map state for the side-effect diff,
	// and mutations explore the offset/delta geometry the verifier gates.
	aggFD := ebpf.LoadMapFD(ebpf.R1, 0)
	aggSeed := []ebpf.Insn{
		ebpf.StoreImm(ebpf.R10, -4, 3, ebpf.SizeW), // key = 3
	}
	aggSeed = append(aggSeed, aggFD[:]...)
	aggSeed = append(aggSeed,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Mov64Imm(ebpf.R3, 5), // delta
		ebpf.Mov64Imm(ebpf.R4, 0), // lane offset
		ebpf.Call(ebpf.HelperMapIncElem),
	)
	aggSeed = append(aggSeed, aggFD[:]...)
	aggSeed = append(aggSeed,
		ebpf.Mov64Imm(ebpf.R2, 777), // sample -> log2 bucket
		ebpf.Call(ebpf.HelperHistObserve),
		ebpf.Exit(),
	)
	f.Add(insnsToBytes(aggSeed))
	// Near miss the verifier must reject: the 8-byte counter lane at
	// offset 4 overhangs map0's 8-byte value.
	oobSeed := []ebpf.Insn{
		ebpf.StoreImm(ebpf.R10, -4, 3, ebpf.SizeW),
	}
	oobSeed = append(oobSeed, aggFD[:]...)
	oobSeed = append(oobSeed,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Mov64Imm(ebpf.R3, 1),
		ebpf.Mov64Imm(ebpf.R4, 4),
		ebpf.Call(ebpf.HelperMapIncElem),
		ebpf.Exit(),
	)
	f.Add(insnsToBytes(oobSeed))
	f.Add(insnsToBytes([]ebpf.Insn{ // ctx load + ALU + helper call
		ebpf.LoadMem(ebpf.R1, ebpf.R1, 0, ebpf.SizeW),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R1),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R0, 7),
		ebpf.Call(ebpf.HelperKtimeGetNs),
		ebpf.Exit(),
	}))
	// Hash map round trip: update, look the value back up, delete. Leaves
	// helper-driven map state behind for the side-effect comparison.
	mapFD := ebpf.LoadMapFD(ebpf.R1, 0)
	mapSeed := []ebpf.Insn{
		ebpf.StoreImm(ebpf.R10, -4, 7, ebpf.SizeW),    // key = 7
		ebpf.StoreImm(ebpf.R10, -12, 99, ebpf.SizeDW), // value = 99
	}
	mapSeed = append(mapSeed, mapFD[:]...)
	mapSeed = append(mapSeed,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R3, -12),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Call(ebpf.HelperMapUpdateElem),
	)
	mapSeed = append(mapSeed, mapFD[:]...)
	mapSeed = append(mapSeed,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookupElem),
		ebpf.JumpImm(ebpf.JmpEq, ebpf.R0, 0, 1), // NULL check
		ebpf.LoadMem(ebpf.R0, ebpf.R0, 0, ebpf.SizeDW),
		ebpf.Exit(),
	)
	f.Add(insnsToBytes(mapSeed))
	// Wide immediate load plus a JMP32 comparison on its low half.
	wideImm := ebpf.LoadImm64(ebpf.R6, 0x1122334455667788)
	wideSeed := append([]ebpf.Insn{}, wideImm[:]...)
	wideSeed = append(wideSeed,
		ebpf.Mov64Reg(ebpf.R0, ebpf.R6),
		ebpf.Insn{Op: ebpf.ClassJMP32 | ebpf.JmpEq, Dst: ebpf.R0, Off: 1, Imm: 0x55667788},
		ebpf.Mov64Imm(ebpf.R0, 1),
		ebpf.Exit(),
	)
	f.Add(insnsToBytes(wideSeed))
	f.Add(insnsToBytes([]ebpf.Insn{ // unterminated: must be rejected
		ebpf.Mov64Imm(ebpf.R0, 0),
	}))
	f.Add(insnsToBytes([]ebpf.Insn{ // uninitialized register read
		ebpf.Mov64Reg(ebpf.R0, ebpf.R5),
		ebpf.Exit(),
	}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		insns := insnsFromBytes(data)
		if err := ebpf.Verify(insns, fuzzMaps(t), core.CtxSize); err != nil {
			return // rejected cleanly — exactly what the verifier is for
		}
		interp := runTier(t, insns, (*ebpf.Program).RunInterpreted)
		opt := runTier(t, insns, (*ebpf.Program).Run)
		if got, want := errIdentity(opt.err), errIdentity(interp.err); got != want {
			t.Fatalf("optimized disagrees on error identity: err=%v (%s), interp err=%v (%s)",
				opt.err, got, interp.err, want)
		}
		if interp.err == nil {
			if opt.r0 != interp.r0 {
				t.Fatalf("optimized disagrees on r0: %#x, interp %#x", opt.r0, interp.r0)
			}
			if opt.stats != interp.stats {
				t.Fatalf("optimized disagrees on stats: %+v, interp %+v", opt.stats, interp.stats)
			}
		}
		if !reflect.DeepEqual(opt.maps, interp.maps) {
			t.Fatalf("optimized disagrees on final map state:\noptimized: %v\ninterp: %v", opt.maps, interp.maps)
		}
		if !reflect.DeepEqual(opt.perf, interp.perf) {
			t.Fatalf("optimized disagrees on perf stream:\noptimized: %q\ninterp: %q", opt.perf, interp.perf)
		}
		if !reflect.DeepEqual(opt.printk, interp.printk) {
			t.Fatalf("optimized disagrees on printk log:\noptimized: %q\ninterp: %q", opt.printk, interp.printk)
		}
	})
}
