package main

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"

	"vnettracer/internal/vnet"
)

// The generator is the only source of the benchmark's inputs. The
// program sees nothing but the packets it hands to the probe sites, and
// everything about them comes from the workload seed: the flow mix
// (which flows exist, their weights and payload sizes, which of them the
// trace scripts' filter rejects), the trace IDs, the send gaps and the
// probe-to-probe delay between udp_send_skb on the sender and
// udp_recvmsg on the receiver.
//
// The send rate follows the only traffic the program itself defines, the
// demo flow of the agent CLI (cmd/vnettracer agent: 1000 packets/s): send
// gaps are exponential with a 1 ms mean. The flow mix below (flow counts,
// weights, miss share, payload sizes, delays) is chosen, not measured; the
// README lists it as such.

const (
	// tracedPort is the destination port the trace scripts filter on.
	tracedPort = 9000
	// numFlows matching and numMissFlows rejected flows make up the mix.
	numFlows     = 24
	numMissFlows = 4
	// missShare is the share of packets sent on rejected flows: a
	// minority, so the filter's reject path runs without dominating.
	missShare = 0.1
	// numCPU is the simulated CPU count of each traced node, and so the
	// number of per-CPU rings each agent drains.
	numCPU = 4
	// sendGapNs is the mean simulated gap between two sends: 1000
	// packets per second.
	sendGapNs = 1_000_000
)

// flowSpec is one seeded flow of the mix.
type flowSpec struct {
	tuple       vnet.FiveTuple
	payload     int // UDP payload bytes, trace ID included
	match       bool
	txCPU       int
	baseDelayNs int64
	seq         uint64
}

// roundPacket is one generated packet with its ground truth.
type roundPacket struct {
	pkt     vnet.Packet
	udp     vnet.UDPHeader
	flow    int
	sendNs  int64
	delayNs int64
	rxCPU   int
}

// fireEvent is one probe firing: packet pkt crossing tracepoint tp
// (0 = udp_send_skb on the sender, 1 = udp_recvmsg on the receiver) at
// simulated time atNs.
type fireEvent struct {
	atNs int64
	pkt  int32
	tp   int8
}

// generator produces closed-loop rounds of packets. Rounds never overlap
// in simulated time, so the per-node clocks only move forward.
type generator struct {
	seed    int64
	rng     *rand.Rand
	flows   []flowSpec
	cum     []float64 // cumulative pick weights over flows
	payload []byte    // shared payload bytes; only lengths matter
	key     uint32    // trace-ID permutation key of the current epoch
	next    uint32    // packets generated in the current epoch
	clock   int64
	pkts    []roundPacket
	events  []fireEvent
}

// newGenerator derives the flow mix from the seed.
func newGenerator(seed int64) *generator {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{seed: seed, payload: make([]byte, 1500)}
	var total float64
	weights := make([]float64, 0, numFlows+numMissFlows)
	for i := 0; i < numFlows+numMissFlows; i++ {
		match := i < numFlows
		port := uint16(tracedPort)
		if !match {
			port = uint16(tracedPort + 1 + rng.Intn(100))
		}
		f := flowSpec{
			tuple: vnet.FiveTuple{
				Src:     vnet.IPv4(0x0a000000 | uint32(rng.Intn(1<<16))),
				Dst:     vnet.IPv4(0x0a010000 | uint32(rng.Intn(1<<16))),
				SrcPort: uint16(20000 + rng.Intn(40000)),
				DstPort: port,
				Proto:   vnet.ProtoUDP,
			},
			payload:     4 + 32 + rng.Intn(1400),
			match:       match,
			txCPU:       rng.Intn(numCPU),
			baseDelayNs: int64(15_000 + rng.Intn(60_000)),
		}
		g.flows = append(g.flows, f)
		// Zipf-like weights among matching flows; rejected flows share
		// missShare evenly.
		w := 1 / float64(i+1)
		weights = append(weights, w)
		if match {
			total += w
		}
	}
	for i := range weights {
		if g.flows[i].match {
			weights[i] = weights[i] / total * (1 - missShare)
		} else {
			weights[i] = missShare / numMissFlows
		}
	}
	var acc float64
	for _, w := range weights {
		acc += w
		g.cum = append(g.cum, acc)
	}
	return g
}

// startEpoch resets the simulated clock and the trace-ID space for a
// fresh store, and re-seeds the packet stream from (seed, epoch).
func (g *generator) startEpoch(epoch int) {
	g.rng = rand.New(rand.NewSource(g.seed*1_000_003 + int64(epoch)))
	g.key = g.rng.Uint32()
	g.next = 0
	g.clock = 1_000_000
	for i := range g.flows {
		g.flows[i].seq = 0
	}
}

// permute is a bijection on uint32 (xor with the key, then an
// xorshift-multiply mix whose every step is invertible), so trace IDs of
// one epoch never collide.
func permute(n, key uint32) uint32 {
	x := n ^ key
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// traceID maps the n-th packet (n >= 1) of an epoch to a distinct
// nonzero trace ID: the one n whose image is 0 takes the image of 0,
// which no n >= 1 maps to.
func (g *generator) traceID(n uint32) uint32 {
	if id := permute(n, g.key); id != 0 {
		return id
	}
	return permute(0, g.key)
}

// stamp is the context timestamp of a fire event whose node clock reads
// nowNs. Record scripts copy it into the record, so it is the probe
// time. Aggregate scripts histogram ktime minus the stamp, so at
// udp_recvmsg the context carries the packet's send time on the sender's
// clock, as a probe-to-probe latency measurement would, and the sample
// is the generated delay.
func (g *generator) stamp(kind pipeKind, ev fireEvent, nowNs int64) int64 {
	if kind == kindAggregates && ev.tp == 1 {
		return nowNs - g.pkts[ev.pkt].delayNs
	}
	return nowNs
}

// cpu is the simulated CPU a fire event runs on: the sending flow's CPU
// at udp_send_skb, the packet's receive CPU at udp_recvmsg.
func (g *generator) cpu(ev fireEvent) int {
	rp := &g.pkts[ev.pkt]
	if ev.tp == 0 {
		return g.flows[rp.flow].txCPU
	}
	return rp.rxCPU
}

func (g *generator) pickFlow() int {
	u := g.rng.Float64() * g.cum[len(g.cum)-1]
	return sort.SearchFloat64s(g.cum, u)
}

// nextRound generates n packets and their 2n fire events in time order.
func (g *generator) nextRound(n int) {
	if cap(g.pkts) < n {
		g.pkts = make([]roundPacket, n)
		g.events = make([]fireEvent, 0, 2*n)
	}
	g.pkts = g.pkts[:n]
	g.events = g.events[:0]
	t := g.clock
	var last int64
	for i := 0; i < n; i++ {
		t += int64(g.rng.ExpFloat64() * sendGapNs)
		fi := g.pickFlow()
		f := &g.flows[fi]
		f.seq++
		g.next++
		rp := &g.pkts[i]
		rp.flow = fi
		rp.sendNs = t
		rp.delayNs = f.baseDelayNs + int64(g.rng.ExpFloat64()*8000)
		rp.rxCPU = g.rng.Intn(numCPU)
		rp.udp = vnet.UDPHeader{
			SrcPort: f.tuple.SrcPort,
			DstPort: f.tuple.DstPort,
			Length:  uint16(vnet.UDPHeaderLen + f.payload),
		}
		rp.pkt = vnet.Packet{
			Eth: vnet.EthernetHeader{EtherType: vnet.EtherTypeIPv4},
			IP: vnet.IPv4Header{
				TTL:      64,
				Protocol: vnet.ProtoUDP,
				Src:      f.tuple.Src,
				Dst:      f.tuple.Dst,
				TotalLen: uint16(vnet.IPv4HeaderLen + vnet.UDPHeaderLen + f.payload),
			},
			UDP:     &rp.udp,
			Payload: g.payload[:f.payload],
			Seq:     f.seq,
			TraceID: g.traceID(g.next),
			SentAt:  t,
		}
		g.events = append(g.events,
			fireEvent{atNs: t, pkt: int32(i), tp: 0},
			fireEvent{atNs: t + rp.delayNs, pkt: int32(i), tp: 1})
		if end := t + rp.delayNs; end > last {
			last = end
		}
	}
	slices.SortFunc(g.events, func(a, b fireEvent) int {
		if c := cmp.Compare(a.atNs, b.atNs); c != 0 {
			return c
		}
		if c := cmp.Compare(a.pkt, b.pkt); c != 0 {
			return c
		}
		return cmp.Compare(a.tp, b.tp)
	})
	g.clock = last + 1000
}
