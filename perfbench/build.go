package main

import (
	"time"

	"p2psum/internal/core"
	"p2psum/internal/p2p"
	"p2psum/internal/sim"
)

// buildParams size the build workload. A run builds `graphs` overlays,
// each from its own seed, so one run averages over several inputs.
type buildParams struct{ peers, domains, waves, graphs int }

func buildSize(small bool) buildParams {
	if small {
		return buildParams{peers: 600, domains: 4, waves: 3, graphs: 2}
	}
	return buildParams{peers: 10000, domains: 20, waves: 3, graphs: 3}
}

// buildRun is the build workload's overlay at core.DefaultConfig().
type buildRun struct {
	*simRun
	p buildParams
}

func newBuildRun(p buildParams, seed int64, tr *tracer) (*buildRun, error) {
	s, err := newSimRun(p.peers, seed, core.DefaultConfig(), tr)
	if err != nil {
		return nil, err
	}
	return &buildRun{simRun: s, p: p}, nil
}

// buildPass is what one pass measured.
type buildPass struct {
	wall     time.Duration
	cpu      time.Duration   // process CPU time of the pass
	installs []time.Duration // wall: MarkModifiedAll until a domain's reconciliation completed
	refresh  []time.Duration // virtual: MarkModifiedAll until a modified peer was merged
	hash     string
	msgs     int64
	bytes    int64
	coverage float64
	stale    float64
}

// pass elects the summary peers, constructs the domains and drives the
// modification waves, checking that each phase exercised its path.
func (b *buildRun) pass(r *report) (buildPass, error) {
	var out buildPass
	engine := b.net.Engine()
	var waveStart time.Time // zero outside the waves
	var waveAt sim.Time
	pending := map[p2p.NodeID]bool{} // modified in this wave, not merged yet
	b.sys.OnReconcile = func(_ p2p.NodeID, merged []p2p.NodeID) {
		if waveStart.IsZero() {
			return
		}
		out.installs = append(out.installs, time.Since(waveStart))
		lag := time.Duration(float64(engine.Now()-waveAt) * float64(time.Second))
		for _, id := range merged {
			if pending[id] {
				out.refresh = append(out.refresh, lag)
				delete(pending, id)
			}
		}
	}
	var err error
	start, cpu0 := time.Now(), cpuTime()
	b.entry(func() { b.sys.ElectSummaryPeers(b.p.domains) })
	b.entry(func() { err = b.sys.Construct() })
	if err != nil {
		return out, err
	}
	b.settle()
	r.check(b.sys.Stats().FindWalks > 0, "build: construction ran no find walk")
	sps := make(map[p2p.NodeID]bool)
	for _, sp := range b.sys.SummaryPeers() {
		sps[sp] = true
	}
	// Each wave modifies every third peer, so every domain crosses α=0.3.
	for wave := 0; wave < b.p.waves; wave++ {
		ids := make([]p2p.NodeID, 0, b.p.peers/3+1)
		for i := wave; i < b.p.peers; i += 3 {
			if !sps[p2p.NodeID(i)] {
				ids = append(ids, p2p.NodeID(i))
			}
		}
		before := b.sys.Stats().Reconciliations
		clear(pending)
		for _, id := range ids {
			pending[id] = true
		}
		waveStart, waveAt = time.Now(), engine.Now()
		b.entry(func() { b.sys.MarkModifiedAll(ids) })
		b.settle()
		r.check(b.sys.Stats().Reconciliations > before, "build: wave %d ran no reconciliation", wave)
	}
	out.wall, out.cpu = time.Since(start), cpuTime()-cpu0
	b.sys.OnReconcile = nil

	out.msgs = b.net.Counter().Total()
	out.bytes = b.net.Bytes().Total()
	out.coverage = b.sys.Coverage()
	out.stale = meanStale(b.sys)
	out.hash = reportHash(b.sys, b.net.Counter(), b.net.Bytes(), out.coverage)
	return out, nil
}

func runBuild(o opts) (*report, error) {
	p := buildSize(o.small)
	r := newReport()
	var run *buildRun
	setup := func(graph int, tr *tracer) error {
		var err error
		run, err = newBuildRun(p, inputSeed(o.seed, graph), tr)
		return err
	}
	if o.trace {
		// An untraced pass over the first graph is the overhead and hash
		// reference, then a traced pass over it runs under the profiler.
		if err := setup(0, nil); err != nil {
			return nil, err
		}
		base, err := run.pass(r)
		if err != nil {
			return nil, err
		}
		tr := &tracer{}
		if err := setup(0, tr); err != nil {
			return nil, err
		}
		var tp buildPass
		err = traced(o, "build", r.layer, func() error {
			var err error
			tp, err = run.pass(r)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.check(tp.hash == base.hash, "build: traced report hash %s differs from untraced %s", tp.hash, base.hash)
		checkHashes(r, o, "build", []string{base.hash})
		tr.layerMetrics(r.layer, tp.msgs, tp.bytes, run.net.Engine().Executed())
		coreMetrics(r.layer, run.sys)
		overhead(r.layer, base.wall, tp.wall)
		r.layer.set("build.refresh_p50_ms", quantileMs(base.refresh, 0.5), "ms")
		r.layer.set("build.refresh_p99_ms", quantileMs(base.refresh, 0.99), "ms")
		r.attempted = int64(p.peers)
		r.failed = uncovered(tp.coverage, p.peers)
		return r, nil
	}

	var passList []buildPass
	setups, peaks, err := passes(p.graphs, 5, func(g int) error { return setup(g, nil) }, func() error {
		ps, err := run.pass(r)
		passList = append(passList, ps)
		return err
	})
	if err != nil {
		return nil, err
	}
	var hashes []string
	var installs []time.Duration
	var cpu time.Duration
	var msgs, bytes, coverage, stale float64
	for _, ps := range passList {
		hashes = append(hashes, ps.hash)
		cpu += ps.cpu
		installs = append(installs, ps.installs...)
		msgs += float64(ps.msgs)
		bytes += float64(ps.bytes)
		coverage += ps.coverage
		stale += ps.stale
		r.failed += uncovered(ps.coverage, p.peers)
	}
	checkHashes(r, o, "build", hashes)
	n := float64(len(passList))
	m := r.e2e
	m.set("setup_s", medianSeconds(setups), "s")
	m.set("cpu_us_per_op", float64(cpu.Microseconds())/n/float64(p.peers), "us/op")
	m.set("max_rss_mb", mean(peaks), "MB")
	m.set("msgs_per_peer", msgs/n/float64(p.peers), "msgs/peer")
	m.set("bytes_per_peer", bytes/n/float64(p.peers), "bytes/peer")
	m.set("coverage", coverage/n, "fraction")
	m.set("fresh_fraction", 1-stale/n, "fraction")
	m.set("install_ms", quantileMs(installs, 0.5), "ms")
	r.attempted = int64(len(passList) * p.peers)
	return r, nil
}
