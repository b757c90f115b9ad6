package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"p2psum/internal/core"
	"p2psum/internal/p2p"
	"p2psum/internal/sim"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
)

// simRun is one freshly set-up overlay on the sequential event engine:
// a Barabási–Albert graph (m=2), the Network, and a System over it — over
// tracedNet when traced.
type simRun struct {
	net *p2p.Network
	sys *core.System
	tr  *tracer // nil when untraced
}

func newSimRun(peers int, seed int64, cfg core.Config, tr *tracer) (*simRun, error) {
	g, err := topology.BarabasiAlbert(peers, 2, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	net := p2p.NewNetwork(sim.New(), g, seed)
	var t p2p.Transport = net
	if tr != nil {
		t = &tracedNet{Network: net, t: tr}
	}
	sys, err := core.NewSystem(t, cfg)
	if err != nil {
		return nil, err
	}
	return &simRun{net: net, sys: sys, tr: tr}, nil
}

// entry calls a core entry point from the benchmark, as a span when traced.
func (s *simRun) entry(fn func()) {
	if s.tr == nil {
		fn()
		return
	}
	s.tr.span(&s.tr.entries, fn)
}

// kernel runs the event engine, as a span when traced.
func (s *simRun) kernel(fn func()) {
	if s.tr == nil {
		fn()
		return
	}
	s.tr.span(&s.tr.kernel, fn)
}

func (s *simRun) settle() { s.kernel(s.net.Settle) }

// inputSeed is the seed of a run's input-th input (overlay, session trace).
func inputSeed(seed int64, input int) int64 { return seed + 7919*int64(input) }

// reportHash fingerprints a settled system: domain reports in
// summary-peer order, the per-type message and byte counters, and
// coverage.
func reportHash(sys *core.System, msgs, bytes *stats.Counter, coverage float64) string {
	h := sha256.New()
	for _, rep := range sys.ReportAll() {
		fmt.Fprintln(h, rep.String())
	}
	for _, c := range []*stats.Counter{msgs, bytes} {
		names := c.Names()
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "%s=%d\n", name, c.Get(name))
		}
	}
	fmt.Fprintf(h, "coverage=%.9f\n", coverage)
	return hex.EncodeToString(h.Sum(nil))
}

// meanStale is the mean stale fraction of the summary peers' cooperation
// lists.
func meanStale(sys *core.System) float64 {
	sps := sys.SummaryPeers()
	if len(sps) == 0 {
		return 0
	}
	var sum float64
	for _, sp := range sps {
		sum += sys.Peer(sp).CooperationList().StaleFraction()
	}
	return sum / float64(len(sps))
}

// uncovered is the number of peers a coverage fraction leaves outside
// every domain.
func uncovered(coverage float64, peers int) int64 {
	return int64((1-coverage)*float64(peers) + 0.5)
}

// overhead reports the traced pass's headline time next to the untraced
// one's.
func overhead(m metricSet, untraced, traced time.Duration) {
	m.set("trace.untraced_wall_s", untraced.Seconds(), "s")
	m.set("trace.traced_wall_s", traced.Seconds(), "s")
	m.set("trace.overhead", ratio(traced.Seconds(), untraced.Seconds()), "ratio")
}

// coreMetrics adds the protocol's own event counts and the liveness
// view's suspicions.
func coreMetrics(m metricSet, sys *core.System) {
	st := sys.Stats()
	m.set("core.reconciliations", float64(st.Reconciliations), "count")
	m.set("core.find_walks", float64(st.FindWalks), "count")
	m.set("core.pushes", float64(st.Pushes), "count")
	m.set("liveness.suspicions", float64(sys.Transport().Liveness().Suspicions()), "count")
}
