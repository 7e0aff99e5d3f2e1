package kernel

import (
	"reflect"
	"sync"
	"testing"
)

// TestProbeFireAttachOrder pins the firing order to attach order, across
// detaches and re-attaches: the order conformance digests and figure rows
// depend on.
func TestProbeFireAttachOrder(t *testing.T) {
	r := NewProbeRegistry()
	var got []int
	handler := func(i int) ProbeHandler {
		return func(*ProbeCtx) int64 { got = append(got, i); return int64(i) }
	}
	detach := make([]func(), 5)
	for i := range detach {
		detach[i] = r.Attach(SiteUDPRecvmsg, handler(i))
	}
	if cost := r.Fire(&ProbeCtx{Site: SiteUDPRecvmsg}); cost != 0+1+2+3+4 {
		t.Fatalf("cost = %d, want 10", cost)
	}
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}

	detach[2]()
	detach[0]()
	r.Attach(SiteUDPRecvmsg, handler(5))
	got = nil
	r.Fire(&ProbeCtx{Site: SiteUDPRecvmsg})
	if want := []int{1, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order after detach/attach = %v, want %v", got, want)
	}
}

// TestProbeDetachDuringFire checks that a firing runs the handler set it
// started with: a handler detaching a later one (or itself) mid-fire
// changes the next firing, not this one.
func TestProbeDetachDuringFire(t *testing.T) {
	r := NewProbeRegistry()
	var got []string
	var detachB, detachSelf func()
	r.Attach(SiteNetRxAction, func(*ProbeCtx) int64 {
		got = append(got, "a")
		detachB()
		detachSelf()
		return 1
	})
	detachSelf = r.Attach(SiteNetRxAction, func(*ProbeCtx) int64 { got = append(got, "self"); return 2 })
	detachB = r.Attach(SiteNetRxAction, func(*ProbeCtx) int64 { got = append(got, "b"); return 4 })

	if cost := r.Fire(&ProbeCtx{Site: SiteNetRxAction}); cost != 7 {
		t.Fatalf("first fire cost = %d, want 7", cost)
	}
	if want := []string{"a", "self", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("first fire ran %v, want %v", got, want)
	}
	got = nil
	if cost := r.Fire(&ProbeCtx{Site: SiteNetRxAction}); cost != 1 {
		t.Fatalf("second fire cost = %d, want 1", cost)
	}
	if want := []string{"a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("second fire ran %v, want %v", got, want)
	}
}

// TestProbeDetachTwiceIsNoop checks that a repeated detach neither panics
// nor removes another handler.
func TestProbeDetachTwiceIsNoop(t *testing.T) {
	r := NewProbeRegistry()
	d1 := r.Attach(SiteTCPRecvmsg, func(*ProbeCtx) int64 { return 1 })
	r.Attach(SiteTCPRecvmsg, func(*ProbeCtx) int64 { return 2 })
	d1()
	d1()
	if n := r.Attached(SiteTCPRecvmsg); n != 1 {
		t.Fatalf("Attached = %d after double detach, want 1", n)
	}
	if cost := r.Fire(&ProbeCtx{Site: SiteTCPRecvmsg}); cost != 2 {
		t.Fatalf("cost = %d, want the surviving handler's 2", cost)
	}
}

// TestProbeFiresAndAttachedCounts checks the per-site counters: only
// firings with a handler count, and the count survives the last detach.
func TestProbeFiresAndAttachedCounts(t *testing.T) {
	r := NewProbeRegistry()
	if r.Fires(SiteSkbPut) != 0 || r.Attached(SiteSkbPut) != 0 {
		t.Fatal("unknown site must report zero fires and handlers")
	}
	r.Fire(&ProbeCtx{Site: SiteSkbPut}) // no handler: not counted
	d1 := r.Attach(SiteSkbPut, func(*ProbeCtx) int64 { return 0 })
	d2 := r.Attach(SiteSkbPut, func(*ProbeCtx) int64 { return 0 })
	r.Attach(SiteGetRPSCPU, func(*ProbeCtx) int64 { return 0 })
	for i := 0; i < 3; i++ {
		r.Fire(&ProbeCtx{Site: SiteSkbPut})
	}
	if r.Fires(SiteSkbPut) != 3 || r.Attached(SiteSkbPut) != 2 {
		t.Fatalf("Fires/Attached = %d/%d, want 3/2", r.Fires(SiteSkbPut), r.Attached(SiteSkbPut))
	}
	if r.Fires(SiteGetRPSCPU) != 0 || r.Attached(SiteGetRPSCPU) != 1 {
		t.Fatalf("other site Fires/Attached = %d/%d, want 0/1", r.Fires(SiteGetRPSCPU), r.Attached(SiteGetRPSCPU))
	}
	d1()
	d2()
	r.Fire(&ProbeCtx{Site: SiteSkbPut})
	if r.Fires(SiteSkbPut) != 3 || r.Attached(SiteSkbPut) != 0 {
		t.Fatalf("after detach Fires/Attached = %d/%d, want 3/0", r.Fires(SiteSkbPut), r.Attached(SiteSkbPut))
	}
}

// TestProbeConcurrentAttachFire fires from several goroutines while
// others attach and detach, for the race detector: each firing must see
// a whole snapshot, never a torn handler list.
func TestProbeConcurrentAttachFire(t *testing.T) {
	r := NewProbeRegistry()
	r.Attach(SiteUDPSendSkb, func(*ProbeCtx) int64 { return 1 })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &ProbeCtx{Site: SiteUDPSendSkb}
			for i := 0; i < 500; i++ {
				if cost := r.Fire(ctx); cost < 1 || cost > 3 {
					t.Errorf("cost = %d, want 1..3", cost)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Attach(SiteUDPSendSkb, func(*ProbeCtx) int64 { return 1 })()
			}
		}()
	}
	wg.Wait()
	if n := r.Attached(SiteUDPSendSkb); n != 1 {
		t.Fatalf("Attached = %d, want 1", n)
	}
	if n := r.Fires(SiteUDPSendSkb); n != 4*500 {
		t.Fatalf("Fires = %d, want %d", n, 4*500)
	}
}
