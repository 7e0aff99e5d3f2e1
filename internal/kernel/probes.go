package kernel

import (
	"fmt"
	"slices"
	"sync"

	"vnettracer/internal/vnet"
)

// Well-known probe sites. These are the kernel functions the paper's trace
// scripts attach to; device-level tracepoints attach through
// vnet.NetDev.AttachHook instead.
const (
	SiteUDPSendSkb      = "udp_send_skb"
	SiteTCPOptionsWrite = "tcp_options_write"
	SiteUDPRecvmsg      = "udp_recvmsg"
	SiteTCPRecvmsg      = "tcp_recvmsg"
	SiteNetRxAction     = "net_rx_action"
	SiteGetRPSCPU       = "get_rps_cpu"
	SiteSkbPut          = "__skb_put"
	SitePskbTrimRcsum   = "pskb_trim_rcsum"
)

// RetSite derives the kretprobe site name for a kernel function: a
// kretprobe at tcp_recvmsg attaches to RetSite(SiteTCPRecvmsg). The kernel
// fires it when the function returns (e.g. after the receive path's cost
// has elapsed).
func RetSite(site string) string { return site + "%return" }

// UprobeSite derives a user-level probe site for an application symbol
// (the paper's uprobe/uretprobe surface). Workloads fire these around
// their request handling.
func UprobeSite(app, symbol string) string { return "uprobe:" + app + ":" + symbol }

// ProbeCtx is the information a probe site exposes to attached handlers;
// the tracer core serializes it into the eBPF context structure.
type ProbeCtx struct {
	// Site is the kernel function or tracepoint name.
	Site string
	// Pkt is the packet in flight; nil for packet-less sites.
	Pkt *vnet.Packet
	// CPU is the executing processor.
	CPU int
	// DevIfindex / DevName identify the device, when relevant.
	DevIfindex int
	DevName    string
	// Dir is the crossing direction for device hooks.
	Dir vnet.Direction
	// TimeNs is the node's CLOCK_MONOTONIC at fire time.
	TimeNs int64
}

// ProbeHandler observes one probe firing and returns CPU nanoseconds
// consumed; the kernel charges that to the packet's processing, making
// tracing overhead physical.
type ProbeHandler func(ctx *ProbeCtx) (costNs int64)

// ProbeRegistry holds handlers attached to kernel probe sites. It is safe
// for concurrent use: the control-plane agent attaches and detaches while
// the simulated kernel fires probes.
type ProbeRegistry struct {
	mu     sync.Mutex
	nextID int
	sites  map[string]*probeSite
}

// probeSite is one site's handlers and fire count. handlers is an
// immutable snapshot in attach order (IDs increase monotonically, so this
// is also ID order); Attach and detach replace it copy-on-write, so Fire
// can run a snapshot outside the lock without allocating.
type probeSite struct {
	handlers []attachedProbe
	fires    uint64
}

type attachedProbe struct {
	id int
	h  ProbeHandler
}

// NewProbeRegistry returns an empty registry.
func NewProbeRegistry() *ProbeRegistry {
	return &ProbeRegistry{sites: make(map[string]*probeSite)}
}

// Attach registers a handler at a site and returns a detach function.
// Calling detach more than once is a no-op.
func (r *ProbeRegistry) Attach(site string, h ProbeHandler) (detach func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.nextID
	r.nextID++
	s, ok := r.sites[site]
	if !ok {
		s = &probeSite{}
		r.sites[site] = s
	}
	// Clip makes append copy, so running firings keep the old snapshot.
	s.handlers = append(slices.Clip(s.handlers), attachedProbe{id: id, h: h})
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		for i, a := range s.handlers {
			if a.id == id {
				s.handlers = slices.Delete(slices.Clone(s.handlers), i, i+1)
				return
			}
		}
	}
}

// Fire invokes every handler attached at ctx.Site, in attach order, and
// returns the summed CPU cost. Sites with no handlers cost nothing,
// preserving the paper's "no tracing, no overhead" property. Handlers run
// outside the lock on the snapshot current at the call, so a concurrent
// detach takes effect from the next firing on.
func (r *ProbeRegistry) Fire(ctx *ProbeCtx) int64 {
	r.mu.Lock()
	s := r.sites[ctx.Site]
	if s == nil || len(s.handlers) == 0 {
		r.mu.Unlock()
		return 0
	}
	s.fires++
	handlers := s.handlers
	r.mu.Unlock()

	var cost int64
	for _, a := range handlers {
		cost += a.h(ctx)
	}
	return cost
}

// Fires reports how many times a site fired with at least one handler.
func (r *ProbeRegistry) Fires(site string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.sites[site]; s != nil {
		return s.fires
	}
	return 0
}

// Attached reports the number of handlers at a site.
func (r *ProbeRegistry) Attached(site string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.sites[site]; s != nil {
		return len(s.handlers)
	}
	return 0
}

func (c *ProbeCtx) String() string {
	return fmt.Sprintf("probe %s cpu=%d dev=%s t=%d", c.Site, c.CPU, c.DevName, c.TimeNs)
}
