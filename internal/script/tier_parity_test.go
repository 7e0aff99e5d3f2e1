package script

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/ebpf"
	"vnettracer/internal/kernel"
	"vnettracer/internal/vnet"
)

// parityEnv is a deterministic Env capturing the perf stream so compiled
// script programs can be compared across execution tiers.
type parityEnv struct {
	time uint64
	perf []string
}

func (e *parityEnv) KtimeNs() uint64        { e.time += 500; return e.time }
func (e *parityEnv) SMPProcessorID() uint32 { return 1 }
func (e *parityEnv) PrandomU32() uint32     { return 9 }
func (e *parityEnv) PerfEventOutput(data []byte) bool {
	e.perf = append(e.perf, string(data))
	return true
}
func (e *parityEnv) TracePrintk(msg string) {}

// TestCompiledScriptsTierParity runs every action combination the script
// compiler supports on the optimized tier and the reference interpreter
// and requires identical results: R0, execution statistics, perf output,
// and final map state. Each tier gets a freshly compiled program (fresh
// maps) and a fresh env, so nothing leaks between engines.
func TestCompiledScriptsTierParity(t *testing.T) {
	combos := [][]Action{
		{ActionRecord},
		{ActionCount},
		{ActionCPUHist},
		{ActionRecord, ActionCount},
		{ActionRecord, ActionCount, ActionCPUHist},
		{ActionHist},
		{ActionFlowCount},
		{ActionHist, ActionFlowCount},
		{ActionRecord, ActionCount, ActionCPUHist, ActionHist, ActionFlowCount},
	}
	ctxs := map[string][]byte{
		"match": core.BuildCtx(nil, &kernel.ProbeCtx{
			Pkt: &vnet.Packet{
				IP:      vnet.IPv4Header{Protocol: vnet.ProtoUDP, Src: 1, Dst: 2},
				UDP:     &vnet.UDPHeader{SrcPort: 1, DstPort: 9000},
				TraceID: 7,
			},
			TimeNs: 1,
		}),
		"nomatch": core.BuildCtx(nil, &kernel.ProbeCtx{
			Pkt: &vnet.Packet{
				IP:      vnet.IPv4Header{Protocol: vnet.ProtoTCP, Src: 1, Dst: 2},
				TCP:     &vnet.TCPHeader{SrcPort: 1, DstPort: 80},
				TraceID: 8,
			},
			TimeNs: 1,
		}),
	}

	type result struct {
		r0    uint64
		stats ebpf.ExecStats
		perf  []string
		maps  []string
	}

	for _, combo := range combos {
		spec := Spec{
			Name:    "parity",
			TPID:    4,
			Filter:  Filter{Proto: vnet.ProtoUDP, DstPort: 9000},
			Actions: combo,
		}
		for ctxName, ctx := range ctxs {
			t.Run(fmt.Sprintf("%v/%s", combo, ctxName), func(t *testing.T) {
				runTier := func(run func(*ebpf.Program, []byte, ebpf.Env) (uint64, ebpf.ExecStats, error)) result {
					insns, maps, err := CompileToInsns(spec)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					prog, err := ebpf.Load(ebpf.ProgramSpec{
						Name: "parity", Type: ebpf.ProgTypeKprobe,
						Insns: insns, Maps: maps, CtxSize: core.CtxSize,
					})
					if err != nil {
						t.Fatalf("load: %v", err)
					}
					env := &parityEnv{}
					var res result
					var rerr error
					res.r0, res.stats, rerr = run(prog, ctx, env)
					if rerr != nil {
						t.Fatalf("run: %v", rerr)
					}
					res.perf = env.perf
					for i, m := range maps {
						m.ForEach(func(k, v []byte) {
							res.maps = append(res.maps, fmt.Sprintf("map%d %x=%x", i, k, v))
						})
					}
					sort.Strings(res.maps)
					return res
				}
				ref := runTier((*ebpf.Program).RunInterpreted)
				if got := runTier((*ebpf.Program).Run); !reflect.DeepEqual(got, ref) {
					t.Errorf("optimized diverges from interpreter:\noptimized: %+v\ninterp: %+v", got, ref)
				}
			})
		}
	}
}
