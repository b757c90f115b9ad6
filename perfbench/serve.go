package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/core"
	"p2psum/internal/data"
	"p2psum/internal/gateway"
	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/routing"
	"p2psum/internal/saintetiq"
	"p2psum/internal/topology"
	"p2psum/internal/wire"
)

// serveParams size the serve workload.
type serveParams struct {
	spokes, shards, rows int
	distinct             int           // distinct queries in the Zipf(1.1) pool
	rate                 float64       // offered rate of the fixed-rate phase, queries/s
	batch                int           // queries of the saturation phase
	writeEvery           time.Duration // writer cadence
	sample               int           // cached answers compared after each install
}

// serveSize fixes the traffic, from measurements on the reference machine
// (2 vCPUs). runtime.NumCPU() gateway.WireClient connections with one
// query outstanding each (the client shape of cmd/gateway) reach 32k
// queries/s against this deployment without writes; beside the writer the
// backlog grows from 16k/s, and at 8k/s a slow minute of the host already
// doubles p99. The offered rate is a quarter of that 16k/s, well below
// saturation. The batch takes nine to fourteen seconds at the saturation
// throughput measured there (70k-110k/s).
func serveSize(small bool) serveParams {
	p := serveParams{
		spokes: 24, shards: 4, rows: 30, distinct: 10000,
		rate:       4000,
		batch:      960000,
		writeEvery: 250 * time.Millisecond,
		sample:     8,
	}
	if small {
		p.spokes, p.rate, p.batch = 8, 1000, 80000
	}
	return p
}

// serveAlpha makes a single rewritten spoke push its domain past the
// freshness threshold, so every write triggers a ring (1/24 > 0.04).
const serveAlpha = 0.04

// origin is the overlay node every query is posed at.
const origin = p2p.NodeID(1)

// serveRun is one deployment: a star domain split over two loopback TCP
// transports the way cmd/p2pnode deploys it — the summary peer (node 0)
// and the gateway on side A, the rewritten spokes on side B — with the
// gateway served by ServeWire to the load connections and a probe client.
type serveRun struct {
	p          serveParams
	b          *bk.BK
	mapper     *cells.Mapper
	seed       int64
	trA, trB   *p2p.TCPTransport
	sysA, sysB *core.System
	sideB      []p2p.NodeID
	versions   []int
	gw         *gateway.Gateway
	be         *tracedBackend // nil when untraced
	installs   chan time.Time // OnInstall times at the summary peer
	ln         net.Listener
	served     chan struct{} // closed when ServeWire returned
	conns      []*loadConn
	readers    sync.WaitGroup // one readLoop per load connection
	phase      atomic.Pointer[loadPhase]
	phaseID    uint64
	probe      *gateway.WireClient

	pool   []query.Query // Zipf-ranked load queries
	bodies [][]byte      // their EncodeFlexQuery encodings
	// The saturation's inputs: the bodies of serveInputs pools, each
	// ranked from its own seed (the first is pool).
	batchBodies [][][]byte
}

var diseases = bk.Medical().Attrs()[3].Labels()

func newServeRun(p serveParams, seed int64, traced bool) (s *serveRun, err error) {
	b := bk.Medical()
	mapper, err := cells.NewMapper(b, data.PatientSchema())
	if err != nil {
		return nil, err
	}
	run := &serveRun{p: p, b: b, mapper: mapper, seed: seed, versions: make([]int, p.spokes+1),
		installs: make(chan time.Time, 1)}
	s = run
	defer func() {
		if err != nil {
			run.close() // s is nil by now: every error path returns nil, err
		}
	}()
	n := p.spokes + 1
	g := topology.NewGraph(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(0, i, 0.01); err != nil {
			return nil, err
		}
	}
	g.Compact()
	var localA []p2p.NodeID
	for i := 0; i < n; i++ {
		if i < n/2 {
			localA = append(localA, p2p.NodeID(i))
		} else {
			s.sideB = append(s.sideB, p2p.NodeID(i))
		}
	}
	if s.trA, err = p2p.NewTCPTransport(g, p2p.TCPConfig{Listen: "127.0.0.1:0", Local: localA}); err != nil {
		return nil, err
	}
	if s.trB, err = p2p.NewTCPTransport(g, p2p.TCPConfig{Listen: "127.0.0.1:0", Local: s.sideB}); err != nil {
		return nil, err
	}
	hostsA, hostsB := map[p2p.NodeID]string{}, map[p2p.NodeID]string{}
	for _, id := range s.sideB {
		hostsA[id] = s.trB.ListenAddr()
	}
	for _, id := range localA {
		hostsB[id] = s.trA.ListenAddr()
	}
	if err := s.trA.SetHosts(hostsA); err != nil {
		return nil, err
	}
	if err := s.trB.SetHosts(hostsB); err != nil {
		return nil, err
	}
	for _, tr := range []*p2p.TCPTransport{s.trA, s.trB} {
		if err := tr.DialPeers(5 * time.Second); err != nil {
			return nil, err
		}
	}
	cfg := core.DefaultConfig()
	cfg.DataLevel, cfg.BK, cfg.Shards, cfg.Alpha = true, b, p.shards, serveAlpha
	// On TCP a virtual second is a wall millisecond: at the default
	// ReconcileTimeout (30) rings that cross the wire time out while in
	// flight, are retransmitted and can be aborted, leaving a write that
	// never installs. This takes the value cmd/p2pnode deploys with.
	cfg.ReconcileTimeout = 2000
	// Liveness claims ride the push and ring messages, so side A learns
	// side B's domain membership and Coverage sees the whole domain.
	cfg.GossipPiggyback = true
	if s.sysA, err = core.NewSystem(s.trA, cfg); err != nil {
		return nil, err
	}
	if s.sysB, err = core.NewSystem(s.trB, cfg); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		id := p2p.NodeID(i)
		tr, err := s.tree(id)
		if err != nil {
			return nil, err
		}
		if i < n/2 {
			s.sysA.SetLocalTree(id, tr)
		} else {
			s.sysB.SetLocalTree(id, tr)
		}
	}
	var be gateway.Backend = gateway.SystemBackend{Sys: s.sysA}
	if traced {
		s.be = &tracedBackend{Backend: be}
		be = s.be
	}
	// Admission is not what this workload measures: the per-client rate is
	// set far above the offered load, everything else is the default.
	s.gw = gateway.New(gateway.Config{Rate: 1e7}, be)
	gw := s.gw
	s.sysA.OnInstall = func(sp p2p.NodeID, swapped int) {
		gw.OnInstall(sp, swapped)
		select {
		case s.installs <- time.Now():
		default:
		}
	}
	for _, sys := range []*core.System{s.sysA, s.sysB} {
		sys.AssignSummaryPeers([]p2p.NodeID{0})
		if err := sys.Construct(); err != nil {
			return nil, err
		}
	}
	s.trA.Settle()
	s.trB.Settle()
	// Warm-up ring: the resident store becomes ring-built, so later
	// installs swap only the shards whose content changed.
	if _, err := s.write(s.sideB[0]); err != nil {
		return nil, fmt.Errorf("warm-up ring: %w", err)
	}

	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.gw.ServeWire(s.ln) // returns when the listener closes
	}()
	for i := 0; i < runtime.NumCPU(); i++ {
		c, err := dialLoad(s.ln.Addr().String())
		if err != nil {
			return nil, err
		}
		s.conns = append(s.conns, c)
		s.readers.Add(1)
		go s.readLoop(i, c)
	}
	if s.probe, err = gateway.DialWire(s.ln.Addr().String(), "probe"); err != nil {
		return nil, err
	}
	s.probe.Timeout = 10 * time.Second
	s.pool, s.bodies = queryPool(b, p.distinct, seed)
	s.batchBodies = [][][]byte{s.bodies}
	for i := 1; i < serveInputs; i++ {
		_, bodies := queryPool(b, p.distinct, inputSeed(seed, i))
		s.batchBodies = append(s.batchBodies, bodies)
	}
	return s, nil
}

// close tears the deployment down and waits for the gateway's accept loop.
func (s *serveRun) close() {
	if s.probe != nil {
		s.probe.Close()
	}
	for _, c := range s.conns {
		c.c.Close()
	}
	s.readers.Wait()
	if s.ln != nil {
		s.ln.Close()
		<-s.served
	}
	for _, tr := range []*p2p.TCPTransport{s.trA, s.trB} {
		if tr != nil {
			tr.Close()
		}
	}
}

// tree summarizes a spoke's current content: rows of the spoke's disease
// whose ages cover the full range on even versions and only the young on
// odd ones, so every rewrite changes the summary.
func (s *serveRun) tree(id p2p.NodeID) (*saintetiq.Tree, error) {
	v := s.versions[id]
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(id)*1009 + int64(v)))
	disease := diseases[int(id)%len(diseases)]
	ageSpan := 90
	if v%2 == 1 {
		ageSpan = 25
	}
	rel := data.NewRelation("r", data.PatientSchema())
	for i := 0; i < s.p.rows; i++ {
		rel.MustInsert(data.Record{
			ID: fmt.Sprintf("%d-%d-%d", id, v, i),
			Values: []data.Value{
				data.NumValue(float64(rng.Intn(ageSpan))),
				data.StrValue([]string{"female", "male"}[rng.Intn(2)]),
				data.NumValue(15 + float64(rng.Intn(25))),
				data.StrValue(disease),
			},
		})
	}
	st := cells.NewStore(s.mapper)
	st.AddRelation(rel)
	tr := saintetiq.New(s.b, saintetiq.DefaultConfig())
	if err := tr.IncorporateStore(st, saintetiq.PeerID(id)); err != nil {
		return nil, err
	}
	return tr, nil
}

// write re-summarizes a far-side spoke and returns the time from its
// MarkModified until the ring's install reached System.OnInstall.
func (s *serveRun) write(id p2p.NodeID) (time.Duration, error) {
	s.versions[id]++
	tr, err := s.tree(id)
	if err != nil {
		return 0, err
	}
	s.trB.Exec(func() { s.sysB.SetLocalTree(id, tr) })
	for len(s.installs) > 0 {
		<-s.installs
	}
	start := time.Now()
	s.sysB.MarkModified(id)
	select {
	case at := <-s.installs:
		return at.Sub(start), nil
	case <-time.After(10 * time.Second):
		return 0, errors.New("no install within 10s of a modification")
	}
}

// writeStats collects the writer's installs and output checks.
type writeStats struct {
	writes    int
	installs  []time.Duration
	fresh     []float64
	proofs    int // probe entries seen re-executing after an install
	compared  int
	failures  []string
	coverage  float64
	staleHits int
}

// writer rewrites far-side spokes in turn, one write every `every` (0:
// back to back). Around every write it runs the probe pair, and after the
// install it compares sampled gateway answers with routing.RouteData run
// directly.
func (s *serveRun) writer(writes int, every time.Duration, rng *rand.Rand, ws *writeStats) {
	next := time.Now()
	for i := 0; i < writes; i++ {
		time.Sleep(time.Until(next))
		next = next.Add(every)
		if err := s.writeCycle(s.sideB[ws.writes%len(s.sideB)], rng, ws); err != nil {
			ws.failures = append(ws.failures, err.Error())
			return
		}
	}
}

func (s *serveRun) writeCycle(id p2p.NodeID, rng *rand.Rand, ws *writeStats) error {
	// The probe query asks for the rewritten spoke's disease only; the
	// load never draws it, so only the probe touches its cache entry.
	probe := query.Query{Select: []string{"age"},
		Where: []query.Clause{{Attr: "disease", Labels: []string{diseases[int(id)%len(diseases)]}}}}
	if _, _, err := s.probe.Ask(origin, probe); err != nil {
		return err
	}
	_, warm, err := s.probe.Ask(origin, probe)
	if err != nil {
		return err
	}
	lat, err := s.write(id)
	if err != nil {
		return err
	}
	ws.writes++
	ws.installs = append(ws.installs, lat)
	_, hit, err := s.probe.Ask(origin, probe)
	if err != nil {
		return err
	}
	if hit {
		ws.staleHits++
		ws.failures = append(ws.failures, fmt.Sprintf("probe entry for spoke %d served from cache after the install that rewrote it", id))
	} else if warm {
		ws.proofs++
	}
	for k := 0; k < s.p.sample; k++ {
		q := s.pool[rng.Intn(len(s.pool))]
		got, hit, err := s.probe.Ask(origin, q)
		if err != nil {
			return err
		}
		want, err := routing.RouteData(s.sysA, origin, q)
		if err != nil {
			return err
		}
		ws.compared++
		if !bytes.Equal(encodeAnswer(got), encodeAnswer(want)) {
			if hit {
				ws.staleHits++
			}
			ws.failures = append(ws.failures, fmt.Sprintf("gateway answer (hit=%v) for %v differs from routing.RouteData", hit, q))
		}
	}
	s.trA.Exec(func() {
		ws.fresh = append(ws.fresh, 1-s.sysA.Peer(0).CooperationList().StaleFraction())
		ws.coverage = s.sysA.Coverage()
	})
	return nil
}

func encodeAnswer(a *routing.DataAnswer) []byte {
	e := wire.GetEnc()
	defer e.Release()
	routing.EncodeDataAnswer(e, a)
	return append([]byte(nil), e.Bytes()...)
}

// queryPool builds the load's distinct conjunctive queries — a disease,
// optional age and bmi label subsets (at least one of them), one or two
// selected attributes — shuffled by seed and cut to distinct; index 0 is
// the most popular under the Zipf draw.
func queryPool(b *bk.BK, distinct int, seed int64) ([]query.Query, [][]byte) {
	attrs := b.Attrs()
	subsets := func(labels []string) [][]string {
		out := [][]string{nil}
		for mask := 1; mask < 1<<len(labels); mask++ {
			var s []string
			for i, l := range labels {
				if mask&(1<<i) != 0 {
					s = append(s, l)
				}
			}
			out = append(out, s)
		}
		return out
	}
	var selects [][]string
	for i := range attrs {
		selects = append(selects, []string{attrs[i].Name})
		for j := i + 1; j < len(attrs); j++ {
			selects = append(selects, []string{attrs[i].Name, attrs[j].Name})
		}
	}
	var pool []query.Query
	for _, d := range diseases {
		for _, ages := range subsets(attrs[0].Labels()) {
			for _, bmis := range subsets(attrs[2].Labels()) {
				if ages == nil && bmis == nil {
					continue
				}
				for _, sel := range selects {
					q := query.Query{Select: sel, Where: []query.Clause{{Attr: "disease", Labels: []string{d}}}}
					if ages != nil {
						q.Where = append(q.Where, query.Clause{Attr: "age", Labels: ages})
					}
					if bmis != nil {
						q.Where = append(q.Where, query.Clause{Attr: "bmi", Labels: bmis})
					}
					pool = append(pool, q)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if distinct < len(pool) {
		pool = pool[:distinct]
	}
	bodies := make([][]byte, len(pool))
	for i, q := range pool {
		e := wire.GetEnc()
		routing.EncodeFlexQuery(e, q)
		bodies[i] = append([]byte(nil), e.Bytes()...)
		e.Release()
	}
	return pool, bodies
}

// loadConn is one pipelined gateway session: queries are written on
// schedule without waiting for answers, a reader matches results by id.
type loadConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialLoad(addr string) (*loadConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &loadConn{c: c, br: bufio.NewReader(c)}
	pe := wire.GetEnc()
	pe.String("load")
	hello := appendUnit(nil, gateway.MsgGwHello, pe.Bytes())
	pe.Release()
	if _, err := c.Write(hello); err != nil {
		c.Close()
		return nil, err
	}
	var body []byte
	if _, err := l.read(&body); err != nil {
		c.Close()
		return nil, fmt.Errorf("gateway hello: %w", err)
	}
	return l, nil
}

// appendUnit appends one length-prefixed gateway frame to dst.
func appendUnit(dst []byte, typ string, payload []byte) []byte {
	e := wire.GetEnc()
	defer e.Release()
	off := e.Skip(4)
	f := wire.Frame{Type: typ, HasPayload: true}
	f.AppendHeaderTo(e, len(payload))
	e.Raw(payload)
	e.FillUint32(off, uint32(e.Len()-4))
	return append(dst, e.Bytes()...)
}

// read returns the next frame's payload, reusing body.
func (l *loadConn) read(body *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(l.br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < 1 || n > 1<<20 {
		return nil, fmt.Errorf("frame length %d out of range", n)
	}
	if cap(*body) < n {
		*body = make([]byte, n)
	}
	*body = (*body)[:n]
	if _, err := io.ReadFull(l.br, *body); err != nil {
		return nil, err
	}
	f, err := wire.DecodeFrameShared(*body)
	if err != nil {
		return nil, err
	}
	return f.Payload, nil
}

// phaseStats is what one open-loop phase measured. Latency runs from each
// query's due time, so a stalled server or generator charges every query
// queued behind the stall.
type phaseStats struct {
	sent            int
	errors          int
	hitLat, missLat []time.Duration
	late            []time.Duration // send time minus due time
}

// latencyMs is the q-quantile of every answered query's latency.
func (ps phaseStats) latencyMs(q float64) float64 {
	all := append(append([]time.Duration(nil), ps.hitLat...), ps.missLat...)
	return quantileMs(all, q)
}

// loadPhase is one load phase as its senders and the connections'
// readers share it. The reader that records the phase's last answer sets
// end and closes done.
type loadPhase struct {
	id    uint64
	start time.Time
	end   time.Time
	left  atomic.Int64
	done  chan struct{}

	// Open loop (openLoop): each query index k is answered once.
	rate     float64
	lat      []time.Duration
	hit      []bool
	failed   []bool
	answered []bool

	// Closed loop (saturate): answers and errored answers per connection;
	// an answer wakes its connection's sender.
	answeredBy []atomic.Int64
	erredBy    []atomic.Int64
	wake       []chan struct{}
}

func (ph *loadPhase) due(k int) time.Time {
	return ph.start.Add(time.Duration(float64(k) / ph.rate * float64(time.Second)))
}

// answer counts one answer of the phase down.
func (ph *loadPhase) answer() {
	if ph.left.Add(-1) == 0 {
		ph.end = time.Now()
		close(ph.done)
	}
}

// readLoop records the answers of the current phase until the connection
// closes.
func (s *serveRun) readLoop(ci int, c *loadConn) {
	defer s.readers.Done()
	var body []byte
	for {
		payload, err := c.read(&body)
		if err != nil {
			return
		}
		d := wire.NewDecShared(payload)
		qid, hit, errMsg := d.Uvarint(), d.Bool(), d.String()
		ph := s.phase.Load()
		if ph == nil || qid>>32 != ph.id {
			continue // a late answer of an earlier phase
		}
		failed := d.Err() != nil || errMsg != ""
		if ph.wake != nil {
			if failed {
				ph.erredBy[ci].Add(1)
			}
			ph.answeredBy[ci].Add(1)
			select {
			case ph.wake[ci] <- struct{}{}:
			default:
			}
			ph.answer()
			continue
		}
		k := int(qid & 0xffffffff)
		if k >= len(ph.lat) || ph.answered[k] {
			continue // malformed, or a duplicate that must not count twice
		}
		ph.lat[k] = time.Since(ph.due(k))
		ph.hit[k], ph.failed[k], ph.answered[k] = hit, failed, true
		ph.answer()
	}
}

// openLoop offers rate queries/s for dur, spread round-robin over the
// load connections, with queries drawn Zipf(1.1) over the pool. The
// calling goroutine is the sender.
func (s *serveRun) openLoop(rate float64, dur time.Duration, rng *rand.Rand) (phaseStats, error) {
	n := int(rate * dur.Seconds())
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(s.pool)-1))
	qs := make([]int, n)
	for i := range qs {
		qs[i] = int(zipf.Uint64())
	}
	s.phaseID++
	ph := &loadPhase{id: s.phaseID, rate: rate, lat: make([]time.Duration, n), hit: make([]bool, n),
		failed: make([]bool, n), answered: make([]bool, n), done: make(chan struct{})}
	ph.left.Store(int64(n))
	late := make([]time.Duration, n)
	bufs := make([][]byte, len(s.conns))
	pe := wire.GetEnc()
	defer pe.Release()
	// The runtime's timers wake a sleeping goroutine up to a millisecond
	// late, which would swamp sub-millisecond latencies; a thread blocked
	// in nanosleep wakes within tens of µs.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ph.start = time.Now().Add(time.Millisecond)
	s.phase.Store(ph)
	for k := 0; k < n; {
		if d := time.Until(ph.due(k)); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
			continue
		}
		now := time.Now()
		for ; k < n && !ph.due(k).After(now); k++ {
			pe.Truncate(0)
			pe.Uvarint(ph.id<<32 | uint64(k))
			pe.Varint(int64(origin))
			pe.Raw(s.bodies[qs[k]])
			ci := k % len(s.conns)
			bufs[ci] = appendUnit(bufs[ci], gateway.MsgGwQuery, pe.Bytes())
			late[k] = now.Sub(ph.due(k))
		}
		for ci, buf := range bufs {
			if len(buf) == 0 {
				continue
			}
			if _, err := s.conns[ci].c.Write(buf); err != nil {
				return phaseStats{}, fmt.Errorf("load connection: %w", err)
			}
			bufs[ci] = buf[:0]
		}
	}
	select {
	case <-ph.done:
	case <-time.After(10 * time.Second):
		return phaseStats{}, fmt.Errorf("%d of %d queries unanswered 10s after the last was sent", ph.left.Load(), n)
	}
	s.phase.Store(nil)
	ps := phaseStats{sent: n, late: late}
	for k := 0; k < n; k++ {
		switch {
		case ph.failed[k]:
			ps.errors++
		case ph.hit[k]:
			ps.hitLat = append(ps.hitLat, ph.lat[k])
		default:
			ps.missLat = append(ps.missLat, ph.lat[k])
		}
	}
	return ps, nil
}

// serveWarmup is the unmeasured load before the fixed-rate phase.
const serveWarmup = 2 * time.Second

// counts snapshots the two transports' message and byte totals and the
// gateway's counters.
type serveCounts struct {
	msgs, bytes int64
	gw          gateway.Stats
	units       int64
	flushes     int64
	sockBytes   int64
}

func (s *serveRun) counts() serveCounts {
	c := serveCounts{gw: s.gw.Snapshot()}
	for _, tr := range []*p2p.TCPTransport{s.trA, s.trB} {
		c.msgs += tr.Counter().Total()
		c.bytes += tr.Bytes().Total()
		for _, ps := range tr.PeerStats() {
			c.units += ps.SentUnits
			c.flushes += ps.Flushes
			c.sockBytes += ps.SentBytes
		}
	}
	return c
}

// fixedPhase runs the open loop at the workload's offered rate beside the
// writer, which does exactly one rewrite per writeEvery of the phase.
func (s *serveRun) fixedPhase(dur time.Duration, seed int64) (phaseStats, *writeStats, serveCounts, error) {
	// Warm-up, unmeasured: the cache fills and the heap reaches its
	// steady size before timing starts.
	if _, err := s.openLoop(s.p.rate, serveWarmup, rand.New(rand.NewSource(seed+5))); err != nil {
		return phaseStats{}, nil, serveCounts{}, err
	}
	runtime.GC()
	before := s.counts()
	ws := &writeStats{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.writer(int(dur/s.p.writeEvery), s.p.writeEvery, rand.New(rand.NewSource(seed+7)), ws)
	}()
	ps, err := s.openLoop(s.p.rate, dur, rand.New(rand.NewSource(seed+11)))
	<-done
	after := s.counts()
	return ps, ws, deltaCounts(before, after), err
}

func deltaCounts(a, b serveCounts) serveCounts {
	return serveCounts{
		msgs: b.msgs - a.msgs, bytes: b.bytes - a.bytes,
		units: b.units - a.units, flushes: b.flushes - a.flushes, sockBytes: b.sockBytes - a.sockBytes,
		gw: gateway.Stats{
			Queries: b.gw.Queries - a.gw.Queries, Shed: b.gw.Shed - a.gw.Shed,
			Hits: b.gw.Hits - a.gw.Hits, Misses: b.gw.Misses - a.gw.Misses,
			Coalesced: b.gw.Coalesced - a.gw.Coalesced, Installs: b.gw.Installs - a.gw.Installs,
			Invalidated: b.gw.Invalidated - a.gw.Invalidated,
		},
	}
}

// saturate measures the read path's capacity: every load connection keeps
// serveDepth queries outstanding (a closed loop) until the batch is sent.
// The writer is paused; the fixed-rate phase measures reads beside writes.
func (s *serveRun) saturate(bodies [][]byte, batch int, seed int64) (satStats, error) {
	s.phaseID++
	n := len(s.conns)
	ph := &loadPhase{id: s.phaseID, answeredBy: make([]atomic.Int64, n), erredBy: make([]atomic.Int64, n),
		wake: make([]chan struct{}, n), done: make(chan struct{})}
	for i := range ph.wake {
		ph.wake[i] = make(chan struct{}, 1)
	}
	ph.left.Store(int64(batch))
	succeeded := func() (a int64) {
		for i := range ph.answeredBy {
			a += ph.answeredBy[i].Load() - ph.erredBy[i].Load()
		}
		return a
	}
	var sending atomic.Int64
	sending.Store(int64(n))
	errs := make([]error, n)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	ph.start = time.Now()
	s.phase.Store(ph)
	for ci, c := range s.conns {
		share := batch / n
		if ci < batch%n {
			share++
		}
		wg.Add(1)
		go func(ci, share int, c *loadConn) {
			defer wg.Done()
			defer sending.Add(-1)
			zipf := rand.NewZipf(rand.New(rand.NewSource(seed+int64(ci))), 1.1, 1, uint64(len(bodies)-1))
			pe := wire.GetEnc()
			defer pe.Release()
			var buf []byte
			for sent := 0; sent < share; {
				out := sent - int(ph.answeredBy[ci].Load())
				if out >= serveDepth {
					select {
					case <-ph.wake[ci]:
					case <-time.After(time.Second):
					}
					continue
				}
				buf = buf[:0]
				for ; out < serveDepth && sent < share; out++ {
					pe.Truncate(0)
					pe.Uvarint(ph.id<<32 | uint64(sent))
					pe.Varint(int64(origin))
					pe.Raw(bodies[zipf.Uint64()])
					buf = appendUnit(buf, gateway.MsgGwQuery, pe.Bytes())
					sent++
				}
				if _, err := c.c.Write(buf); err != nil {
					errs[ci] = err
					return
				}
			}
		}(ci, share, c)
	}
	// Throughput is counted per serveSatWindow over the windows in which
	// every connection was still sending; window 0 is the ramp.
	var rates []float64
	var prev int64
	var prevAt time.Time
	for w := 1; ; w++ {
		time.Sleep(time.Until(ph.start.Add(time.Duration(w) * serveSatWindow)))
		a, at := succeeded(), time.Now()
		if sending.Load() < int64(n) {
			break
		}
		if w > 1 {
			rates = append(rates, float64(a-prev)/at.Sub(prevAt).Seconds())
		}
		prev, prevAt = a, at
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return satStats{}, fmt.Errorf("load connection: %w", err)
		}
	}
	select {
	case <-ph.done:
	case <-time.After(10 * time.Second):
		return satStats{}, fmt.Errorf("%d of %d saturation queries unanswered", ph.left.Load(), batch)
	}
	s.phase.Store(nil)
	st := satStats{sent: batch, wall: ph.end.Sub(ph.start), cpu: cpuTime() - cpu0, capacity: median(rates)}
	for i := range ph.erredBy {
		st.errors += int(ph.erredBy[i].Load())
	}
	if len(rates) == 0 { // a batch shorter than two windows
		st.capacity = float64(batch-st.errors) / st.wall.Seconds()
	}
	return st, nil
}

// satStats is what the saturation measured: the median window's
// throughput of answers without error, the time from the first query sent
// to the last answer, the process CPU time it took, and the answers that
// carried an error.
type satStats struct {
	capacity float64
	wall     time.Duration
	cpu      time.Duration
	sent     int
	errors   int
}

// add folds one of n sub-batches into st: capacity is their mean, the
// rest their sums.
func (st *satStats) add(sub satStats, n int) {
	st.capacity += sub.capacity / float64(n)
	st.wall += sub.wall
	st.cpu += sub.cpu
	st.sent += sub.sent
	st.errors += sub.errors
}

// serveInputs is the number of query pools the saturation averages over:
// a pool's Zipf head, which the seed picks, sets much of the cost of a
// query, so one pool per run would make the seed the measurement.
const serveInputs = 3

// serveSatWindow is the span over which saturation throughput is counted.
const serveSatWindow = 500 * time.Millisecond

// serveDepth is the number of queries each load connection keeps
// outstanding while saturating. On the reference machine throughput stops
// rising past 8 (depth 1: 51k/s, 4: 65k/s, 8: 85k/s, 16-64: 79k-109k/s),
// so 32 sits on the plateau and capacity does not hinge on it.
const serveDepth = 32

// serveMeasure is what one deployment's measured phases produced.
type serveMeasure struct {
	fixed  phaseStats
	ws     *writeStats
	counts serveCounts // over the fixed-rate phase
	whole  serveCounts // over the fixed-rate phase and the saturation
	sat    satStats
	quiet  []time.Duration // install latencies of the quiet writes
}

// serveQuietWrites is the number of writes timed without read load.
const serveQuietWrites = 48

// measure times installs with no read load, runs the fixed-rate phase
// beside the writer, then saturates the read path with the batch.
func (s *serveRun) measure(fixed time.Duration, seed int64) (serveMeasure, error) {
	var m serveMeasure
	before := s.counts()
	// Installs timed with no read load beside them: the write path alone.
	runtime.GC()
	quiet := &writeStats{}
	s.writer(serveQuietWrites, 0, rand.New(rand.NewSource(seed+19)), quiet)
	m.quiet = quiet.installs
	var err error
	if m.fixed, m.ws, m.counts, err = s.fixedPhase(fixed, seed); err != nil {
		return m, err
	}
	m.ws.failures = append(m.ws.failures, quiet.failures...)
	m.ws.staleHits += quiet.staleHits
	runtime.GC()
	for i, bodies := range s.batchBodies {
		st, err := s.saturate(bodies, s.p.batch/len(s.batchBodies), seed+17+int64(i))
		if err != nil {
			return m, err
		}
		m.sat.add(st, len(s.batchBodies))
	}
	m.whole = deltaCounts(before, s.counts())
	return m, nil
}

func runServe(o opts) (*report, error) {
	p := serveSize(o.small)
	r := newReport()
	// A third of the run is the fixed-rate phase; the saturation batch,
	// warm-up, quiet writes and set-ups take the rest.
	fixed := time.Duration(o.seconds / 3 * float64(time.Second))
	var setups []time.Duration
	setup := func(traced bool) (*serveRun, error) {
		start := time.Now()
		s, err := newServeRun(p, o.seed, traced)
		setups = append(setups, time.Since(start))
		return s, err
	}
	if o.trace {
		// An untraced deployment is the overhead reference, then a traced
		// one (timed backend, CPU profiler) runs the same phases.
		base, err := setup(false)
		if err != nil {
			return nil, err
		}
		bm, err := base.measure(fixed, o.seed)
		base.close()
		if err != nil {
			return nil, err
		}
		serveChecks(r, bm)
		s, err := setup(true)
		if err != nil {
			return nil, err
		}
		defer s.close()
		var tm serveMeasure
		err = traced(o, "serve", r.layer, func() error {
			var err error
			tm, err = s.measure(fixed, o.seed)
			return err
		})
		if err != nil {
			return nil, err
		}
		serveChecks(r, tm)
		ps, c := tm.fixed, tm.whole
		m := r.layer
		m.set("gateway.hit_rate", ratio(float64(c.gw.Hits), float64(c.gw.Hits+c.gw.Misses)), "fraction")
		m.set("gateway.coalesced", float64(c.gw.Coalesced), "count")
		m.set("gateway.invalidated", float64(c.gw.Invalidated), "count")
		m.set("gateway.shed", float64(c.gw.Shed), "count")
		exec := s.be.snapshot()
		m.set("gateway.exec_calls", float64(len(exec)), "count")
		m.set("gateway.exec_p50_us", 1000*quantileMs(exec, 0.5), "us")
		// The untraced deployment's open loop gives the query latency.
		m.set("serve.p50_ms", bm.fixed.latencyMs(0.5), "ms")
		m.set("serve.p99_ms", bm.fixed.latencyMs(0.99), "ms")
		m.set("serve.capacity_ops", bm.sat.capacity, "ops/s")
		m.set("serve.batch_s", bm.sat.wall.Seconds(), "s")
		m.set("serve.hit_p50_us", 1000*quantileMs(ps.hitLat, 0.5), "us")
		m.set("serve.miss_p50_us", 1000*quantileMs(ps.missLat, 0.5), "us")
		m.set("serve.late_p99_us", 1000*quantileMs(ps.late, 0.99), "us")
		m.set("serve.install_loaded_ms", quantileMs(tm.ws.installs, 0.5), "ms")
		m.set("p2p.tcp_units_per_flush", ratio(float64(c.units), float64(c.flushes)), "units/flush")
		m.set("p2p.tcp_bytes", float64(c.sockBytes), "bytes")
		stA, stB := s.sysA.Stats(), s.sysB.Stats()
		m.set("core.reconciliations", float64(stA.Reconciliations+stB.Reconciliations), "count")
		m.set("core.pushes", float64(stA.Pushes+stB.Pushes), "count")
		m.set("liveness.suspicions", float64(s.trA.Liveness().Suspicions()+s.trB.Liveness().Suspicions()), "count")
		bp50, tp50 := bm.fixed.latencyMs(0.5), tm.fixed.latencyMs(0.5)
		m.set("trace.untraced_p50_ms", bp50, "ms")
		m.set("trace.traced_p50_ms", tp50, "ms")
		m.set("trace.overhead", ratio(tp50, bp50), "ratio")
		r.attempted, r.failed = tm.attempted()
		return r, nil
	}

	// Several set-ups are timed; the last one is measured.
	var s *serveRun
	for i := 0; i < 3; i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = setup(false); err != nil {
			return nil, err
		}
	}
	defer s.close()
	var sm serveMeasure
	peak, err := peakResident(func() error {
		var err error
		sm, err = s.measure(fixed, o.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	serveChecks(r, sm)
	ws, c := sm.ws, sm.counts
	peers := float64(p.spokes + 1)
	m := r.e2e
	m.set("setup_s", medianSeconds(setups), "s")
	m.set("cpu_us_per_op", float64(sm.sat.cpu.Microseconds())/float64(sm.sat.sent-sm.sat.errors), "us/op")
	m.set("max_rss_mb", peak, "MB")
	m.set("msgs_per_peer", float64(c.msgs)/peers, "msgs/peer")
	m.set("bytes_per_peer", float64(c.bytes)/peers, "bytes/peer")
	m.set("coverage", ws.coverage, "fraction")
	m.set("fresh_fraction", mean(ws.fresh), "fraction")
	m.set("install_ms", quantileMs(sm.quiet, 0.5), "ms")
	r.attempted, r.failed = sm.attempted()
	return r, nil
}

// attempted counts the queries and writes issued, and the queries answered
// with an error (a query left unanswered fails the run outright).
func (m serveMeasure) attempted() (int64, int64) {
	return int64(m.fixed.sent + m.sat.sent + m.ws.writes + len(m.quiet)), int64(m.fixed.errors + m.sat.errors)
}

// serveChecks applies the serve workload's output checks and exercise
// assertions.
func serveChecks(r *report, m serveMeasure) {
	ps, ws, g := m.fixed, m.ws, m.whole.gw
	for _, f := range ws.failures {
		r.check(false, "serve: %s", f)
	}
	r.check(ws.staleHits == 0, "serve: %d stale answers served from cache", ws.staleHits)
	r.check(ws.writes > 0 && ws.compared > 0, "serve: writer made %d writes, compared %d answers", ws.writes, ws.compared)
	r.check(ws.proofs > 0, "serve: no probe entry was seen re-executing after an install")
	r.check(ps.errors == 0, "serve: %d of %d open-loop queries answered with an error", ps.errors, ps.sent)
	r.check(m.sat.errors == 0, "serve: %d of %d saturation queries answered with an error", m.sat.errors, m.sat.sent)
	r.check(g.Hits > 0 && g.Misses > 0 && g.Coalesced > 0 && g.Installs > 0 && g.Invalidated > 0,
		"serve: gateway path not fully exercised: hits=%d misses=%d coalesced=%d installs=%d invalidated=%d",
		g.Hits, g.Misses, g.Coalesced, g.Installs, g.Invalidated)
}
