package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"p2psum/internal/gateway"
	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/routing"
)

// spanStat accumulates one kind of span: how many, their summed duration
// and their summed self time (duration minus the child spans nested in
// them).
type spanStat struct {
	calls int64
	total time.Duration
	self  time.Duration
}

// tracer records spans around the calls the benchmark makes into the
// layers, and around the callbacks the layers make back (handlers,
// timers). It assumes one goroutine drives the transport — true of the
// sequential event engine — so nesting is a plain stack.
type tracer struct {
	stack []time.Duration // child time of each open span

	hops, walks, sends spanStat // topology and p2p calls
	handlers, timers   spanStat // core callbacks run by the kernel
	entries            spanStat // core entry points the benchmark calls
	kernel             spanStat // Settle / RunUntil: heap and dispatch
}

func (t *tracer) begin() time.Time {
	t.stack = append(t.stack, 0)
	return time.Now()
}

func (t *tracer) end(start time.Time, s *spanStat) {
	d := time.Since(start)
	top := len(t.stack) - 1
	s.calls++
	s.total += d
	s.self += d - t.stack[top]
	t.stack = t.stack[:top]
	if top > 0 {
		t.stack[top-1] += d
	}
}

// span runs fn inside a span of kind s.
func (t *tracer) span(s *spanStat, fn func()) {
	start := t.begin()
	fn()
	t.end(start, s)
}

// tracedNet is the sequential Network with a span around every call core
// makes into it and every callback it makes into core. Embedding forwards
// the rest of the Network's method set unchanged, including the optional
// DispatchGrouper and OriginScheduler interfaces core looks for, so the
// protocol runs exactly as it does on the bare Network.
type tracedNet struct {
	*p2p.Network
	t *tracer
}

func (n *tracedNet) SetHandler(id p2p.NodeID, h p2p.Handler) {
	n.Network.SetHandler(id, func(m *p2p.Message) { n.t.span(&n.t.handlers, func() { h(m) }) })
}

func (n *tracedNet) SetDrop(fn func(*p2p.Message)) {
	n.Network.SetDrop(func(m *p2p.Message) { n.t.span(&n.t.handlers, func() { fn(m) }) })
}

func (n *tracedNet) Send(msg *p2p.Message) {
	n.t.span(&n.t.sends, func() { n.Network.Send(msg) })
}

func (n *tracedNet) SendNew(typ string, from, to p2p.NodeID, ttl int, payload any) {
	n.t.span(&n.t.sends, func() { n.Network.SendNew(typ, from, to, ttl, payload) })
}

func (n *tracedNet) HopsWithin(src p2p.NodeID, radius int) (out map[p2p.NodeID]int) {
	n.t.span(&n.t.hops, func() { out = n.Network.HopsWithin(src, radius) })
	return out
}

func (n *tracedNet) SelectiveWalk(typ string, src p2p.NodeID, maxHops int, accept func(p2p.NodeID) bool) (out p2p.WalkResult) {
	n.t.span(&n.t.walks, func() { out = n.Network.SelectiveWalk(typ, src, maxHops, accept) })
	return out
}

func (n *tracedNet) RandomWalk(typ string, src p2p.NodeID, maxHops int, accept func(p2p.NodeID) bool) (out p2p.WalkResult) {
	n.t.span(&n.t.walks, func() { out = n.Network.RandomWalk(typ, src, maxHops, accept) })
	return out
}

func (n *tracedNet) Flood(typ string, src p2p.NodeID, ttl int, payload any, visit func(p2p.NodeID)) (out map[p2p.NodeID]bool) {
	n.t.span(&n.t.walks, func() { out = n.Network.Flood(typ, src, ttl, payload, visit) })
	return out
}

func (n *tracedNet) After(owner p2p.NodeID, delay float64, fn func()) {
	n.Network.After(owner, delay, func() { n.t.span(&n.t.timers, fn) })
}

func (n *tracedNet) AfterFrom(origin, owner p2p.NodeID, delay float64, fn func()) {
	n.Network.AfterFrom(origin, owner, delay, func() { n.t.span(&n.t.timers, fn) })
}

func (n *tracedNet) Settle() {
	n.t.span(&n.t.kernel, n.Network.Settle)
}

var (
	_ p2p.Transport       = (*tracedNet)(nil)
	_ p2p.DispatchGrouper = (*tracedNet)(nil)
	_ p2p.OriginScheduler = (*tracedNet)(nil)
)

// layerMetrics adds the tracer's per-layer figures. msgs and bytes are the
// transport's counters over the traced phase; events the kernel's.
func (t *tracer) layerMetrics(m metricSet, msgs, bytes int64, events uint64) {
	m.set("topology.hops_calls", float64(t.hops.calls), "count")
	m.set("topology.hops_s", t.hops.total.Seconds(), "s")
	m.set("topology.walk_calls", float64(t.walks.calls), "count")
	m.set("topology.walk_s", t.walks.total.Seconds(), "s")
	m.set("core.handler_calls", float64(t.handlers.calls), "count")
	m.set("core.handler_self_s", t.handlers.self.Seconds(), "s")
	m.set("core.timer_calls", float64(t.timers.calls), "count")
	m.set("core.timer_self_s", t.timers.self.Seconds(), "s")
	m.set("core.entry_calls", float64(t.entries.calls), "count")
	m.set("core.entry_self_s", t.entries.self.Seconds(), "s")
	m.set("p2p.send_calls", float64(t.sends.calls), "count")
	m.set("p2p.send_s", t.sends.total.Seconds(), "s")
	m.set("p2p.bytes_per_send", ratio(float64(bytes), float64(t.sends.calls)), "bytes")
	m.set("sim.events", float64(events), "count")
	m.set("sim.events_per_msg", ratio(float64(events), float64(msgs)), "events/msg")
	m.set("sim.self_s", t.kernel.self.Seconds(), "s")
}

// tracedBackend times every upstream execution the gateway makes: the
// routing, query and summary-store work behind a cache miss.
type tracedBackend struct {
	gateway.Backend
	mu  sync.Mutex
	lat []time.Duration
}

func (b *tracedBackend) Execute(origin p2p.NodeID, q query.Query) (*routing.DataAnswer, error) {
	start := time.Now()
	ans, err := b.Backend.Execute(origin, q)
	d := time.Since(start)
	b.mu.Lock()
	b.lat = append(b.lat, d)
	b.mu.Unlock()
	return ans, err
}

func (b *tracedBackend) snapshot() []time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Duration(nil), b.lat...)
}

// runtimeSample reads the Go runtime's GC CPU time and allocation totals.
type runtimeSample struct {
	gcCPU, allocBytes, allocObjects float64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{num(s[0].Value), num(s[1].Value), num(s[2].Value)}
}

// runtimeMetrics adds the runtime's work between two samples.
func runtimeMetrics(m metricSet, before, after runtimeSample) {
	m.set("runtime.gc_cpu_s", after.gcCPU-before.gcCPU, "s")
	m.set("runtime.alloc_mb", (after.allocBytes-before.allocBytes)/(1<<20), "MB")
	m.set("runtime.allocs", after.allocObjects-before.allocObjects, "count")
}

// quantileMs returns the q-quantile of ds in milliseconds (nearest rank).
func quantileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rank(len(s), q)]) / float64(time.Millisecond)
}
