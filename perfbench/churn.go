package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"p2psum/internal/core"
	"p2psum/internal/p2p"
	"p2psum/internal/sim"
	"p2psum/internal/workload"
)

// churnParams size the churn workload: the -exp churn experiment's rate-4
// point (lognormal sessions, mean 3 h / median 1 h compressed 4×, offline
// gaps half a session, half the departures graceful).
type churnParams struct {
	inputs         int // session traces replayed per run, each from its own seed
	peers, domains int
	hours          float64
	rate           float64
	graceful       float64
	gossipEvery    float64 // virtual seconds between GossipRound calls and health samples
	slice          float64 // virtual seconds the replay advances between wall-clock readings
}

func churnSize(small bool) churnParams {
	p := churnParams{inputs: 2, peers: 2000, domains: 8, hours: 2, rate: 4, graceful: 0.5, gossipEvery: 300, slice: 10}
	if small {
		p.peers, p.domains, p.hours = 300, 4, 1
	}
	return p
}

// churnRun is one constructed overlay with the whole session trace,
// modification pushes, gossip rounds and health samples scheduled.
type churnRun struct {
	*simRun
	p       churnParams
	horizon sim.Time
	base    [2]int64 // message and byte totals after construction
	ops     int64    // session and modification operations executed

	coverage, stale []float64 // health samples, one per slice
	markAt          map[p2p.NodeID]sim.Time
	lags            []time.Duration // virtual: modification until merged by a reconciliation
}

func newChurnRun(p churnParams, seed int64, tr *tracer) (*churnRun, error) {
	cfg := core.DefaultConfig()
	cfg.GossipPiggyback = true
	s, err := newSimRun(p.peers, seed, cfg, tr)
	if err != nil {
		return nil, err
	}
	c := &churnRun{simRun: s, p: p, horizon: sim.Hours(p.hours), markAt: map[p2p.NodeID]sim.Time{}}
	var cerr error
	c.entry(func() {
		s.sys.ElectSummaryPeers(p.domains)
		cerr = s.sys.Construct()
	})
	if cerr != nil {
		return nil, cerr
	}
	c.base = [2]int64{s.net.Counter().Total(), s.net.Bytes().Total()}

	engine := s.net.Engine()
	now := func() sim.Time { return engine.Now() }
	s.sys.OnReconcile = func(_ p2p.NodeID, merged []p2p.NodeID) {
		for _, id := range merged {
			if at, ok := c.markAt[id]; ok {
				c.lags = append(c.lags, time.Duration(float64(now()-at)*float64(time.Second)))
				delete(c.markAt, id)
			}
		}
	}
	lifetimes, err := workload.NewLifetimeDist(3*3600/p.rate, 3600/p.rate)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	sps := map[p2p.NodeID]bool{}
	for _, sp := range s.sys.SummaryPeers() {
		sps[sp] = true
	}
	at := func(t sim.Time, fn func()) { engine.At(t, func() { c.entry(fn) }) }

	// Sessions: every online interval becomes a Join/Leave pair; summary
	// peers stay up.
	churn := workload.Churn{Lifetimes: lifetimes, OfflineFactor: 0.5}
	for _, ses := range churn.Plan(rng, p.peers, c.horizon) {
		id := p2p.NodeID(ses.Peer)
		if sps[id] {
			continue
		}
		if ses.Start > 0 {
			at(ses.Start, func() { c.ops++; s.sys.Join(id) })
		}
		if ses.End < c.horizon {
			graceful := rng.Float64() < p.graceful
			at(ses.End, func() {
				c.ops++
				delete(c.markAt, id)
				s.sys.Leave(id, graceful)
			})
		}
	}
	// Per-peer local-summary modifications, each re-armed at a fresh draw.
	var mod func(id p2p.NodeID, t sim.Time)
	mod = func(id p2p.NodeID, t sim.Time) {
		if t > c.horizon {
			return
		}
		at(t, func() {
			c.ops++
			if _, pending := c.markAt[id]; !pending && s.net.Online(id) {
				c.markAt[id] = now()
			}
			s.sys.MarkModified(id)
			mod(id, now()+lifetimes.Draw(rng))
		})
	}
	for i := 0; i < p.peers; i++ {
		if id := p2p.NodeID(i); !sps[id] {
			mod(id, lifetimes.Draw(rng))
		}
	}
	// Gossip rounds and health samples at fixed virtual times.
	for t := sim.Time(p.gossipEvery); t < c.horizon; t += sim.Time(p.gossipEvery) {
		at(t, s.sys.GossipRound)
	}
	for t := sim.Time(p.gossipEvery); t <= c.horizon; t += sim.Time(p.gossipEvery) {
		at(t, func() {
			c.coverage = append(c.coverage, s.sys.Coverage())
			c.stale = append(c.stale, meanStale(s.sys))
		})
	}
	return c, nil
}

// churnPass is what one replay of the horizon measured.
type churnPass struct {
	wall            time.Duration
	cpu             time.Duration   // process CPU time of the replay
	slices          []time.Duration // wall time of each slice of virtual time
	lags            []time.Duration
	hash            string
	msgs, bytes     int64
	coverage, stale float64
	ops             int64
	st              core.Stats
	suspicions      uint64
	gossipMsgs      int64
}

// pass replays the horizon one slice of virtual time at a time.
func (c *churnRun) pass(r *report) churnPass {
	var out churnPass
	engine := c.net.Engine()
	start, cpu0 := time.Now(), cpuTime()
	for t := sim.Time(c.p.slice); ; t += sim.Time(c.p.slice) {
		if t > c.horizon {
			t = c.horizon
		}
		sliceStart := time.Now()
		c.kernel(func() { engine.RunUntil(t) })
		out.slices = append(out.slices, time.Since(sliceStart))
		if t == c.horizon {
			break
		}
	}
	out.wall, out.cpu = time.Since(start), cpuTime()-cpu0

	out.msgs = c.net.Counter().Total() - c.base[0]
	out.bytes = c.net.Bytes().Total() - c.base[1]
	out.coverage = mean(c.coverage)
	out.stale = mean(c.stale)
	out.lags = c.lags
	out.ops = c.ops
	out.st = c.sys.Stats()
	out.suspicions = c.net.Liveness().Suspicions()
	out.gossipMsgs = c.net.Counter().Get(core.MsgGossip)

	h := sha256.New()
	fmt.Fprintln(h, reportHash(c.sys, c.net.Counter(), c.net.Bytes(), c.sys.Coverage()))
	for i := range c.coverage {
		fmt.Fprintf(h, "%.9f %.9f\n", c.coverage[i], c.stale[i])
	}
	fmt.Fprintf(h, "%+v suspicions=%d\n", out.st, out.suspicions)
	out.hash = hex.EncodeToString(h.Sum(nil))

	r.check(out.st.Joins > 0, "churn: no join ran")
	r.check(out.st.GracefulLeaves > 0 && out.st.Failures > 0, "churn: leaves graceful=%d silent=%d", out.st.GracefulLeaves, out.st.Failures)
	r.check(out.suspicions > 0, "churn: the liveness view raised no suspicion")
	r.check(out.gossipMsgs > 0, "churn: no gossip message was sent")
	r.check(out.st.Reconciliations > 0, "churn: no reconciliation ran")
	return out
}

func runChurn(o opts) (*report, error) {
	p := churnSize(o.small)
	r := newReport()
	var run *churnRun
	setup := func(input int, tr *tracer) error {
		var err error
		run, err = newChurnRun(p, inputSeed(o.seed, input), tr)
		return err
	}
	var passList []churnPass
	pass := func() error {
		passList = append(passList, run.pass(r))
		return nil
	}
	if o.trace {
		// An untraced replay of the first input is the overhead and hash
		// reference, then a traced replay of it runs under the profiler.
		if err := setup(0, nil); err != nil {
			return nil, err
		}
		if err := pass(); err != nil {
			return nil, err
		}
		tr := &tracer{}
		if err := setup(0, tr); err != nil {
			return nil, err
		}
		events0 := run.net.Engine().Executed()
		if err := traced(o, "churn", r.layer, pass); err != nil {
			return nil, err
		}
		base, tp := passList[0], passList[1]
		r.check(tp.hash == base.hash, "churn: traced report hash %s differs from untraced %s", tp.hash, base.hash)
		checkHashes(r, o, "churn", []string{base.hash})
		tr.layerMetrics(r.layer, tp.msgs, tp.bytes, run.net.Engine().Executed()-events0)
		coreMetrics(r.layer, run.sys)
		overhead(r.layer, base.wall, tp.wall)
		r.layer.set("churn.slice_p50_ms", quantileMs(base.slices, 0.5), "ms")
		r.layer.set("churn.slice_p99_ms", quantileMs(base.slices, 0.99), "ms")
		r.attempted = tp.ops
		return r, nil
	}
	setups, peaks, err := passes(p.inputs, 3, func(in int) error { return setup(in, nil) }, pass)
	if err != nil {
		return nil, err
	}
	var hashes []string
	var lags []time.Duration
	var cpu time.Duration
	var msgs, bytes, coverage, stale float64
	for _, ps := range passList {
		hashes = append(hashes, ps.hash)
		cpu += ps.cpu
		lags = append(lags, ps.lags...)
		msgs += float64(ps.msgs)
		bytes += float64(ps.bytes)
		coverage += ps.coverage
		stale += ps.stale
		r.attempted += ps.ops
	}
	checkHashes(r, o, "churn", hashes)
	n := float64(len(passList))
	m := r.e2e
	m.set("setup_s", medianSeconds(setups), "s")
	m.set("cpu_us_per_op", float64(cpu.Microseconds())/msgs, "us/op")
	m.set("max_rss_mb", mean(peaks), "MB")
	m.set("msgs_per_peer", msgs/n/float64(p.peers), "msgs/peer")
	m.set("bytes_per_peer", bytes/n/float64(p.peers), "bytes/peer")
	m.set("coverage", coverage/n, "fraction")
	m.set("fresh_fraction", 1-stale/n, "fraction")
	m.set("install_ms", quantileMs(lags, 0.5), "ms")
	return r, nil
}
