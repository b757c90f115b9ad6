package p2p

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2psum/internal/liveness"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
	"p2psum/internal/wire"
)

// TCPTransport is the socket-backed Transport: a process hosts a subset of
// the overlay's nodes, serializes every protocol message into a wire frame
// (internal/wire) and ships frames to the processes hosting the remaining
// nodes over persistent TCP connections, so two real OS processes can form
// a summary domain, reconcile it and answer queries — the deployment
// direction ROADMAP names beyond the in-memory transports.
//
// Topology is shared knowledge: every process constructs the same
// topology.Graph (same generator, same seed) and agrees on which process
// hosts which node (TCPConfig.Hosts). Handler dispatch reuses the dispatch
// engine of the in-memory channel transport — per-group serialized
// dispatcher goroutines, Exec barriers, After timers, sharded bookkeeping —
// so the protocol layers see the exact same execution model; only delivery
// differs: a frame bound for a remote node rides a per-peer writer
// goroutine onto the socket instead of a latency-sleeping carrier.
//
// Stream protocol: every unit on a connection is a 4-byte big-endian
// length followed by a 1-byte kind and the body. Data units carry one wire
// frame; control units implement the hello handshake (listen address plus
// hosted node ids), drop echoes (§4.3 failure detection across processes:
// a frame for an offline node bounces back and runs the sender's drop
// callback in the sender's process), the status exchange behind the
// distributed Settle, and named barriers for driver-side phase alignment.
//
// Byte accounting is exact: every serializable message — local or remote —
// is charged the length of its encoded frame, so Bytes() equals the sum of
// encoded frame lengths and in-process runs report the same volumes as
// distributed ones. WireStats additionally reports the socket-level frame
// traffic.
//
// Limitations (documented, driver-visible): Online state is a local view —
// remote nodes count as online unless flipped locally; Flood, SelectiveWalk
// and RandomWalk traverse the shared topology in the calling process
// (charging transmissions as the in-memory transports do) and their accept
// callbacks only see local protocol state. Drivers on a TCP deployment
// should therefore partition driver duties by locality (see Localizer),
// which internal/core's construction already does.
type TCPTransport struct {
	graph *topology.Graph
	cfg   TCPConfig
	eng   *dispatchEngine
	ln    net.Listener
	laddr string

	view *liveness.View

	mu      sync.Mutex // guards handler, drop
	handler []Handler
	drop    func(*Message)

	local  []bool   // id -> hosted in this process
	hostOf []string // id -> remote process address ("" when local)

	connMu       sync.Mutex
	conns        map[string]*tcpConn // peer listen address -> registered connection
	allConns     []*tcpConn          // every started connection, for Close
	reconnecting map[string]bool     // peer addresses with a live backoff loop
	closed       bool
	closeCh      chan struct{} // closed by Close; aborts reconnect backoffs

	wireMu      sync.Mutex
	sentTo      map[string]int64 // data frames enqueued per peer address
	handledFrom map[string]int64 // data frames fully handled per peer address
	peerHandled map[string]int64 // peer's last-reported handled count (status exchanges)
	ws          WireStats

	statusMu sync.Mutex
	nonce    uint64
	statusCh map[uint64]chan statusInfo

	barrierMu sync.Mutex
	barriers  map[uint32]map[string]bool // tag -> peer addresses seen

	nextMsg atomic.Uint64
	wg      sync.WaitGroup

	// gate holds the partition hook (SetLinkFilter): frames for severed
	// links never reach the socket — they are charged as sent and routed
	// to the §4.3 drop path in the sender's process, exactly like a frame
	// for a dead connection.
	gate linkGate
}

// TCPConfig configures a TCPTransport.
type TCPConfig struct {
	// Listen is the TCP listen address, e.g. "127.0.0.1:7701". Use port 0
	// to let the kernel pick (ListenAddr reports the result).
	Listen string
	// Local lists the overlay nodes hosted in this process.
	Local []NodeID
	// Hosts maps every remote node to the listen address of the process
	// hosting it. It may also be installed later via SetHosts (before any
	// traffic), which test setups with kernel-picked ports need.
	Hosts map[NodeID]string
	// Dispatchers is the number of dispatch groups (see ChannelConfig).
	Dispatchers int
	// GroupBy maps a node to its dispatch group (see ChannelConfig).
	GroupBy func(NodeID) int
	// TimerScale maps one virtual second of After delay onto real time
	// (default 1ms, matching the channel transport's fallback).
	TimerScale time.Duration
	// DialTimeout bounds one connection attempt (default 3s).
	DialTimeout time.Duration
	// MaxFrame bounds the accepted unit size in bytes (default 64 MiB).
	MaxFrame int
	// ReconnectAttempts bounds the background redial loop started when a
	// registered peer connection breaks: the transport retries with
	// exponential backoff until the peer answers or the budget is spent
	// (default 8; negative disables reconnection — sends keep failing into
	// the §4.3 drop path until a send-triggered dial succeeds). A
	// successful redial re-runs the hello handshake, and the protocol
	// layer's liveness gossip reconciles the peer's nodes back to online.
	ReconnectAttempts int
	// ReconnectBackoff is the first redial delay (default 100ms).
	ReconnectBackoff time.Duration
	// ReconnectMax caps the growing redial delay (default 3s).
	ReconnectMax time.Duration
	// FlushDelay bounds the writer's coalescing wait: once a batch holds at
	// least one unit, the writer lingers this long for more before issuing
	// the socket write (default 500µs; negative flushes immediately —
	// batches then only form while a previous write is in flight).
	FlushDelay time.Duration
	// FlushBytes is the batch size that flushes without waiting out
	// FlushDelay (default 32 KiB).
	FlushBytes int
	// KeepAlive is the idle-link probe interval: a connection that has
	// received nothing for this long is pinged, and torn down when the pong
	// stays out for another 2×KeepAlive — the cheap liveness signal for
	// idle links, where no data frame would ever bounce (default 15s;
	// negative disables probing).
	KeepAlive time.Duration
	// MaxBacklogBytes bounds the unflushed send backlog of one peer
	// connection: when the batch a stalled writer is accumulating exceeds
	// this many bytes, the connection is cut and its queued units
	// discarded — senders fall into the §4.3 drop path instead of queueing
	// without bound behind a peer that stopped reading (default 0:
	// unbounded).
	MaxBacklogBytes int
	// MaxBacklogAge cuts a connection whose oldest unflushed unit has
	// waited this long for the socket (checked on the keepalive tick) —
	// the time-domain complement of MaxBacklogBytes for slow-but-not-
	// stopped peers (default 0: no age bound).
	MaxBacklogAge time.Duration
}

// Stream unit kinds.
const (
	kHello      = 1 // handshake: listen address + hosted node ids
	kData       = 2 // one wire frame (a protocol message)
	kDropEcho   = 3 // a frame bounced back to its sender's process (§4.3)
	kStatusReq  = 4 // distributed-settle probe
	kStatusResp = 5 // distributed-settle answer
	kBarrier    = 6 // named driver barrier marker
	kPing       = 7 // keepalive probe (body: sender's send-time nanos)
	kPong       = 8 // keepalive answer (body echoed back)
)

// statusInfo is one peer's answer to a settle probe.
type statusInfo struct {
	handled int64 // data frames from us the peer has fully handled
	sent    int64 // data frames the peer has enqueued to us
	idle    bool  // peer's dispatch groups were pending-free at reply time
}

// WireStats counts the socket-level data-frame traffic of a TCPTransport.
// Control units (hello, status, barriers, drop echoes) are excluded: they
// are transport overhead, not protocol cost.
type WireStats struct {
	// SentFrames and SentBytes count data frames enqueued to remote peers
	// (bytes are encoded frame lengths, without the length prefix).
	SentFrames, SentBytes int64
	// RecvFrames and RecvBytes count data frames received from peers.
	RecvFrames, RecvBytes int64
	// LocalFrames and LocalBytes count frames delivered within the
	// process (both endpoints hosted here) — they never touch a socket but
	// pass through the same encode/decode pipeline.
	LocalFrames, LocalBytes int64
	// ChargedMsgs and ChargedBytes count transmissions accounted without
	// a frame: walk/flood traversal charges and Sizer-fallback payloads
	// (no registered codec). The byte-accounting identity is therefore
	// Bytes().Total() == SentBytes + LocalBytes + ChargedBytes.
	ChargedMsgs, ChargedBytes int64
}

// tcpConn is one persistent peer connection: senders append complete units
// directly into a pooled batch buffer, a writer goroutine swaps the batch
// out and flushes it with one socket write (the throttled send-routine
// idiom — coalescing amortizes syscalls and small-packet overhead), a
// reader goroutine parses inbound units out of a reused read buffer. The
// batch never blocks senders on purpose: a dispatcher must never block on
// a peer's socket backpressure, or two processes flooding each other could
// deadlock in a cycle (dispatcher -> full send queue -> peer's reader ->
// peer's full inbox -> peer's dispatcher -> ...). Backpressure is applied
// by disconnection instead: the TCPConfig.MaxBacklogBytes/MaxBacklogAge
// budgets cut a connection whose backlog grows past bounds, so a stalled
// peer is dropped (§4.3 failure path), not waited on. Appending never
// blocks and never holds a lock across I/O.
type tcpConn struct {
	c    net.Conn
	dead atomic.Bool

	qmu     sync.Mutex
	qcond   *sync.Cond
	batch   *wire.Enc // pending units; nil while empty (writer owns no batch)
	pending int       // units in batch

	// Flow accounting (PeerStats): EWMA rates plus lifetime unit counts on
	// both directions, flush counts on the send side, ping RTT.
	sendFlow  flowRate
	recvFlow  flowRate
	sentUnits atomic.Int64
	recvUnits atomic.Int64
	flushes   atomic.Int64
	lastRecv  atomic.Int64 // unix nanos of the last received unit
	pingSent  atomic.Int64 // unix nanos of the outstanding ping (0: none)
	lastRTT   atomic.Int64 // nanos of the last completed ping round trip
	oldest    atomic.Int64 // unix nanos of the oldest unflushed unit (0: none)

	mu   sync.Mutex
	addr string // peer's listen address, learned from hello (dialed: preset)
}

func newTCPConn(c net.Conn) *tcpConn {
	conn := &tcpConn{c: c}
	conn.qcond = sync.NewCond(&conn.qmu)
	conn.lastRecv.Store(time.Now().UnixNano())
	return conn
}

func (c *tcpConn) peerAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

// appendUnit appends one stream unit — length prefix, kind, body — to the
// batch buffer, building the body in place via fill (which must append
// through e and report success). The length prefix is reserved up front
// and backfilled, so even a body whose size is unknown beforehand (a frame
// encoded straight off its payload codec) costs no intermediate buffer. A
// failed fill rolls the batch back to its previous state. appendUnit
// reports false — nothing appended — once the connection is dead. It never
// blocks on the socket: only the writer does I/O.
func (c *tcpConn) appendUnit(kind byte, fill func(e *wire.Enc) bool) bool {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if c.dead.Load() {
		return false
	}
	if c.batch == nil {
		c.batch = wire.GetEnc()
	}
	e := c.batch
	start := e.Len()
	off := e.Skip(4)
	e.Uint8(kind)
	if fill != nil && !fill(e) {
		e.Truncate(start)
		return false
	}
	e.FillUint32(off, uint32(e.Len()-start-4))
	c.pending++
	if c.pending == 1 {
		c.oldest.Store(time.Now().UnixNano())
	}
	c.qcond.Signal()
	return true
}

// sendRaw appends one unit with a prebuilt body (control traffic).
func (c *tcpConn) sendRaw(kind byte, body []byte) bool {
	return c.appendUnit(kind, func(e *wire.Enc) bool {
		e.Raw(body)
		return true
	})
}

// takeBatch blocks until units are pending or the connection dies, lingers
// up to delay for more units to coalesce (unless the batch already holds
// flushBytes), then hands the batch — and the number of units in it — to
// the writer. The caller owns the returned Enc and must Release it.
func (c *tcpConn) takeBatch(delay time.Duration, flushBytes int) (*wire.Enc, int, bool) {
	c.qmu.Lock()
	for c.pending == 0 && !c.dead.Load() {
		c.qcond.Wait()
	}
	if c.pending > 0 && delay > 0 && c.batch.Len() < flushBytes {
		c.qmu.Unlock()
		time.Sleep(delay)
		c.qmu.Lock()
	}
	if c.pending == 0 || c.batch == nil {
		c.qmu.Unlock()
		return nil, 0, false
	}
	e := c.batch
	n := c.pending
	c.batch = nil
	c.pending = 0
	c.oldest.Store(0)
	c.qmu.Unlock()
	return e, n, true
}

// shutdown marks the connection dead exactly once, closing the socket and
// waking the writer (pending units are discarded — the peer is gone).
func (c *tcpConn) shutdown() {
	c.qmu.Lock()
	if !c.dead.Swap(true) {
		if c.batch != nil {
			c.batch.Release()
			c.batch = nil
		}
		c.pending = 0
		c.oldest.Store(0)
		c.qcond.Broadcast()
	}
	c.qmu.Unlock()
	c.c.Close()
}

// NewTCPTransport builds a TCP transport over the shared graph and starts
// listening. Every node starts online; handlers are only consulted for
// local nodes. Close must be called or the listener, dispatcher and
// connection goroutines leak.
func NewTCPTransport(graph *topology.Graph, cfg TCPConfig) (*TCPTransport, error) {
	if len(cfg.Local) == 0 {
		return nil, errors.New("p2p: TCP transport needs at least one local node")
	}
	if cfg.TimerScale <= 0 {
		cfg.TimerScale = time.Millisecond
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = 64 << 20
	}
	if cfg.ReconnectAttempts == 0 {
		cfg.ReconnectAttempts = 8
	}
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = 100 * time.Millisecond
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 3 * time.Second
	}
	if cfg.FlushDelay == 0 {
		cfg.FlushDelay = 500 * time.Microsecond
	}
	if cfg.FlushBytes <= 0 {
		cfg.FlushBytes = 32 << 10
	}
	if cfg.KeepAlive == 0 {
		cfg.KeepAlive = 15 * time.Second
	}
	n := graph.Len()
	t := &TCPTransport{
		graph:        graph,
		cfg:          cfg,
		handler:      make([]Handler, n),
		local:        make([]bool, n),
		hostOf:       make([]string, n),
		conns:        make(map[string]*tcpConn),
		reconnecting: make(map[string]bool),
		closeCh:      make(chan struct{}),
		sentTo:       make(map[string]int64),
		handledFrom:  make(map[string]int64),
		peerHandled:  make(map[string]int64),
		statusCh:     make(map[uint64]chan statusInfo),
		barriers:     make(map[uint32]map[string]bool),
	}
	t.view = liveness.NewView(n, func(id int) bool { return t.IsLocal(NodeID(id)) })
	for _, id := range cfg.Local {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("p2p: local node %d out of range", id)
		}
		t.local[id] = true
	}
	for id, addr := range cfg.Hosts {
		if err := t.setHost(id, addr); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("p2p: listen %s: %w", cfg.Listen, err)
	}
	t.ln = ln
	t.laddr = ln.Addr().String()
	t.eng = newDispatchEngine(n, cfg.Dispatchers, cfg.GroupBy, t.deliver)
	t.wg.Add(1)
	go t.acceptLoop()
	if cfg.KeepAlive > 0 || cfg.MaxBacklogAge > 0 {
		t.wg.Add(1)
		go t.keepaliveLoop()
	}
	return t, nil
}

func (t *TCPTransport) setHost(id NodeID, addr string) error {
	if id < 0 || int(id) >= len(t.hostOf) {
		return fmt.Errorf("p2p: host mapping for out-of-range node %d", id)
	}
	if t.local[id] {
		return fmt.Errorf("p2p: node %d is local, cannot map to %s", id, addr)
	}
	t.hostOf[id] = addr
	return nil
}

// SetHosts installs the node -> process address mapping for remote nodes.
// It must complete before any traffic flows (test setups listen on
// kernel-picked ports first, then exchange addresses).
func (t *TCPTransport) SetHosts(hosts map[NodeID]string) error {
	for id, addr := range hosts {
		if err := t.setHost(id, addr); err != nil {
			return err
		}
	}
	return nil
}

// ListenAddr returns the transport's actual listen address.
func (t *TCPTransport) ListenAddr() string { return t.laddr }

// IsLocal reports whether the node's handlers run in this process.
func (t *TCPTransport) IsLocal(id NodeID) bool {
	return id >= 0 && int(id) < len(t.local) && t.local[id]
}

// LocalIDs returns the sorted ids of the nodes hosted in this process.
func (t *TCPTransport) LocalIDs() []NodeID {
	var out []NodeID
	for i, l := range t.local {
		if l {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// peerAddrs returns the distinct remote process addresses of the host map.
func (t *TCPTransport) peerAddrs() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range t.hostOf {
		if a != "" && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// WireStats returns a snapshot of the socket-level data-frame counters.
func (t *TCPTransport) WireStats() WireStats {
	t.wireMu.Lock()
	defer t.wireMu.Unlock()
	return t.ws
}

// PeerStat is one live peer connection's flow snapshot (PeerStats).
type PeerStat struct {
	// Addr is the peer process's listen address.
	Addr string
	// SendRate and RecvRate are bytes/sec EWMA estimates of the socket
	// traffic in each direction (length prefixes included).
	SendRate, RecvRate float64
	// SentBytes and RecvBytes are lifetime socket bytes of this connection.
	SentBytes, RecvBytes int64
	// SentUnits and RecvUnits count stream units (data and control).
	SentUnits, RecvUnits int64
	// Flushes counts socket writes; SentUnits/Flushes is the mean batch
	// coalescing factor.
	Flushes int64
	// QueuedUnits and QueuedBytes measure the batch not yet flushed.
	QueuedUnits, QueuedBytes int
	// InFlight is the number of data frames sent to the peer and not yet
	// known handled — refreshed by status exchanges (Settle), so between
	// exchanges it is an upper bound.
	InFlight int64
	// RTT is the last completed keepalive round trip (0 before the first).
	RTT time.Duration
}

// PeerStats snapshots the per-peer flow counters of every registered
// connection, ordered by peer address. It is cheap enough for a signal
// handler: no I/O, a handful of mutexes.
func (t *TCPTransport) PeerStats() []PeerStat {
	t.connMu.Lock()
	addrs := make([]string, 0, len(t.conns))
	conns := make([]*tcpConn, 0, len(t.conns))
	for a, c := range t.conns {
		addrs = append(addrs, a)
		conns = append(conns, c)
	}
	t.connMu.Unlock()
	sort.Sort(&peerStatOrder{addrs, conns})
	out := make([]PeerStat, 0, len(conns))
	for i, c := range conns {
		st := PeerStat{
			Addr:      addrs[i],
			SentUnits: c.sentUnits.Load(),
			RecvUnits: c.recvUnits.Load(),
			Flushes:   c.flushes.Load(),
			RTT:       time.Duration(c.lastRTT.Load()),
		}
		st.SendRate, st.SentBytes = c.sendFlow.snapshot()
		st.RecvRate, st.RecvBytes = c.recvFlow.snapshot()
		c.qmu.Lock()
		st.QueuedUnits = c.pending
		if c.batch != nil {
			st.QueuedBytes = c.batch.Len()
		}
		c.qmu.Unlock()
		t.wireMu.Lock()
		st.InFlight = t.sentTo[st.Addr] - t.peerHandled[st.Addr]
		t.wireMu.Unlock()
		if st.InFlight < 0 {
			st.InFlight = 0
		}
		out = append(out, st)
	}
	return out
}

// peerStatOrder sorts the address and connection slices in lockstep.
type peerStatOrder struct {
	addrs []string
	conns []*tcpConn
}

func (o *peerStatOrder) Len() int           { return len(o.addrs) }
func (o *peerStatOrder) Less(i, j int) bool { return o.addrs[i] < o.addrs[j] }
func (o *peerStatOrder) Swap(i, j int) {
	o.addrs[i], o.addrs[j] = o.addrs[j], o.addrs[i]
	o.conns[i], o.conns[j] = o.conns[j], o.conns[i]
}

// probeInterval picks the keepalive tick: half of the tightest active
// bound (KeepAlive, MaxBacklogAge), floored at one millisecond.
func (t *TCPTransport) probeInterval() time.Duration {
	var iv time.Duration
	if t.cfg.KeepAlive > 0 {
		iv = t.cfg.KeepAlive / 2
	}
	if a := t.cfg.MaxBacklogAge / 2; a > 0 && (iv == 0 || a < iv) {
		iv = a
	}
	if iv < time.Millisecond {
		iv = time.Millisecond
	}
	return iv
}

// keepaliveLoop probes idle registered connections: a connection that has
// received nothing for KeepAlive gets a ping (the pong carries the RTT
// into PeerStats), and a ping unanswered for 2×KeepAlive tears the
// connection down — the cheap liveness signal for idle links, which would
// otherwise only notice a silently dead peer on the next data frame. The
// same tick enforces MaxBacklogAge: a connection whose oldest unflushed
// unit has waited out the budget is cut (its writer is stuck in a socket
// write the peer refuses to drain).
func (t *TCPTransport) keepaliveLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(t.probeInterval())
	defer tick.Stop()
	for {
		select {
		case <-t.closeCh:
			return
		case now := <-tick.C:
			t.connMu.Lock()
			conns := make([]*tcpConn, 0, len(t.conns))
			for _, c := range t.conns {
				conns = append(conns, c)
			}
			t.connMu.Unlock()
			for _, c := range conns {
				if age := t.cfg.MaxBacklogAge; age > 0 {
					if o := c.oldest.Load(); o != 0 && now.Sub(time.Unix(0, o)) > age {
						t.connDead(c) // writer stalled: the backlog aged out
						continue
					}
				}
				if t.cfg.KeepAlive <= 0 {
					continue
				}
				if ps := c.pingSent.Load(); ps != 0 {
					if now.Sub(time.Unix(0, ps)) > 2*t.cfg.KeepAlive {
						t.connDead(c) // peer hung: ping stayed unanswered
					}
					continue
				}
				if now.Sub(time.Unix(0, c.lastRecv.Load())) < t.cfg.KeepAlive {
					continue
				}
				nanos := now.UnixNano()
				c.pingSent.Store(nanos)
				var e wire.Enc
				e.Uvarint(uint64(nanos))
				c.sendRaw(kPing, e.Bytes())
			}
		}
	}
}

// --- connection management -------------------------------------------------

// helloBody encodes this process's handshake body.
func (t *TCPTransport) helloBody() []byte {
	var e wire.Enc
	e.String(t.laddr)
	locals := t.LocalIDs()
	e.Uvarint(uint64(len(locals)))
	for _, id := range locals {
		e.Varint(int64(id))
	}
	return e.Bytes()
}

// DialPeers connects to every remote process of the host map, retrying
// until the budget elapses — daemons racing to start use it as their
// connect phase.
func (t *TCPTransport) DialPeers(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for _, addr := range t.peerAddrs() {
		for {
			if _, ok := t.liveConn(addr); ok {
				break
			}
			if _, err := t.dial(addr); err == nil {
				break
			} else if time.Now().After(deadline) {
				return fmt.Errorf("p2p: dial %s: %w", addr, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// liveConn returns the registered connection for the address, if any.
func (t *TCPTransport) liveConn(addr string) (*tcpConn, bool) {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	c, ok := t.conns[addr]
	return c, ok
}

// dial opens, registers and hands off one connection to addr.
func (t *TCPTransport) dial(addr string) (*tcpConn, error) {
	c, err := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	conn := newTCPConn(c)
	conn.addr = addr
	t.connMu.Lock()
	if t.closed {
		t.connMu.Unlock()
		c.Close()
		return nil, errors.New("p2p: transport closed")
	}
	if existing, ok := t.conns[addr]; ok {
		// Simultaneous dials: keep the registered one, use the new socket
		// read-only (the peer may have registered it on its side).
		t.connMu.Unlock()
		if t.startConn(conn) {
			conn.sendRaw(kHello, t.helloBody())
		}
		return existing, nil
	}
	t.conns[addr] = conn
	t.connMu.Unlock()
	if !t.startConn(conn) {
		t.connMu.Lock()
		if t.conns[addr] == conn {
			delete(t.conns, addr)
		}
		t.connMu.Unlock()
		return nil, errors.New("p2p: transport closed")
	}
	conn.sendRaw(kHello, t.helloBody())
	return conn, nil
}

// startConn launches the reader and writer goroutines of a connection,
// registering it for Close under the same lock Close sets closed under —
// a connection appearing concurrently with Close is either shut down by
// Close (registered first) or refused here (closed seen first); its
// goroutines can never outlive wg.Wait. It reports whether the connection
// was started.
func (t *TCPTransport) startConn(conn *tcpConn) bool {
	t.connMu.Lock()
	if t.closed {
		t.connMu.Unlock()
		conn.shutdown()
		return false
	}
	t.allConns = append(t.allConns, conn)
	t.wg.Add(2)
	t.connMu.Unlock()
	go t.writeLoop(conn)
	go t.readLoop(conn)
	return true
}

// acceptLoop registers inbound connections; their identity arrives with
// the hello unit.
func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		conn := newTCPConn(c)
		t.connMu.Lock()
		if t.closed {
			t.connMu.Unlock()
			c.Close()
			return
		}
		t.connMu.Unlock()
		t.startConn(conn)
	}
}

// writeLoop flushes the connection's batch buffer onto the socket: it
// takes whatever units have coalesced (lingering FlushDelay for stragglers
// unless FlushBytes already accumulated), issues one write for the whole
// batch, and returns the buffer to the encoder pool. A write error marks
// the connection dead: subsequent sends to the peer run the drop callback
// instead (§4.3 failure detection for dead connections).
func (t *TCPTransport) writeLoop(conn *tcpConn) {
	defer t.wg.Done()
	for {
		e, units, ok := conn.takeBatch(t.cfg.FlushDelay, t.cfg.FlushBytes)
		if !ok {
			conn.c.Close()
			return
		}
		b := e.Bytes()
		_, err := conn.c.Write(b)
		n := int64(len(b))
		e.Release()
		conn.sendFlow.add(n)
		conn.sentUnits.Add(int64(units))
		conn.flushes.Add(1)
		if err != nil {
			t.connDead(conn)
			return
		}
	}
}

// readLoop parses units off the socket until it breaks. The body buffer is
// reused across units: handleUnit fully consumes every borrowed byte before
// returning (frames decode their payloads through the codecs, control
// bodies are copied), so no allocation rides the per-unit path.
func (t *TCPTransport) readLoop(conn *tcpConn) {
	defer t.wg.Done()
	defer t.connDead(conn)
	br := bufio.NewReader(conn.c)
	hdr := make([]byte, 4)
	var body []byte
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(hdr))
		if n < 1 || n > t.cfg.MaxFrame {
			return // corrupt or hostile length
		}
		if cap(body) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		conn.recvFlow.add(int64(4 + n))
		conn.recvUnits.Add(1)
		conn.lastRecv.Store(time.Now().UnixNano())
		t.handleUnit(conn, body[0], body[1:])
		if cap(body) > maxReadBuf {
			body = nil // give a one-off huge frame's buffer back to the GC
		}
	}
}

// maxReadBuf bounds the reused read buffer kept across units.
const maxReadBuf = 1 << 20

// connDead unregisters a broken connection, shuts it down and — when the
// peer is part of the host map — starts the background reconnect loop.
func (t *TCPTransport) connDead(conn *tcpConn) {
	if conn.dead.Load() {
		return
	}
	conn.shutdown()
	addr := conn.peerAddr()
	wasRegistered := false
	t.connMu.Lock()
	if addr != "" && t.conns[addr] == conn {
		delete(t.conns, addr)
		wasRegistered = true
	}
	t.connMu.Unlock()
	if wasRegistered && t.isPeerAddr(addr) {
		t.scheduleReconnect(addr)
	}
}

// isPeerAddr reports whether the address hosts nodes of the shared map —
// only those peers are worth redialing.
func (t *TCPTransport) isPeerAddr(addr string) bool {
	for _, a := range t.hostOf {
		if a == addr {
			return true
		}
	}
	return false
}

// scheduleReconnect starts one background redial loop for the peer, with
// bounded exponential backoff (TCPConfig.ReconnectAttempts/Backoff/Max).
// At most one loop runs per address; Close aborts the backoff sleep. A
// successful dial re-runs the hello handshake (dial always sends it), after
// which the protocol layer's liveness gossip reconciles the peer's nodes
// back to online in both views.
func (t *TCPTransport) scheduleReconnect(addr string) {
	if t.cfg.ReconnectAttempts < 0 {
		return
	}
	t.connMu.Lock()
	if t.closed || t.reconnecting[addr] {
		t.connMu.Unlock()
		return
	}
	t.reconnecting[addr] = true
	t.wg.Add(1)
	t.connMu.Unlock()
	go func() {
		defer t.wg.Done()
		defer func() {
			t.connMu.Lock()
			delete(t.reconnecting, addr)
			t.connMu.Unlock()
		}()
		backoff := t.cfg.ReconnectBackoff
		for attempt := 0; attempt < t.cfg.ReconnectAttempts; attempt++ {
			select {
			case <-time.After(backoff):
			case <-t.closeCh:
				return
			}
			if _, ok := t.liveConn(addr); ok {
				return // the peer dialed us (or a send-path dial won)
			}
			if _, err := t.dial(addr); err == nil {
				return
			}
			backoff = min(2*backoff, t.cfg.ReconnectMax)
		}
	}()
}

// connFor returns the live connection for addr, dialing once on demand.
func (t *TCPTransport) connFor(addr string) (*tcpConn, bool) {
	conn, ok := t.liveConn(addr)
	if !ok {
		var err error
		if conn, err = t.dial(addr); err != nil {
			return nil, false
		}
	}
	return conn, true
}

// backlogExceeded reports whether the connection's unflushed backlog is
// over the byte budget. It takes and releases the queue lock itself —
// callers must not hold it, because the teardown they trigger on a true
// result (shutdown) locks the same mutex.
func (t *TCPTransport) backlogExceeded(conn *tcpConn) bool {
	if t.cfg.MaxBacklogBytes <= 0 {
		return false
	}
	conn.qmu.Lock()
	queued := 0
	if conn.batch != nil {
		queued = conn.batch.Len()
	}
	conn.qmu.Unlock()
	return queued > t.cfg.MaxBacklogBytes
}

// enqueue hands one control unit to the peer's writer, dialing once on
// demand. It reports false when the peer is unreachable or was cut for
// exceeding its backlog budget.
func (t *TCPTransport) enqueue(addr string, kind byte, body []byte) bool {
	conn, ok := t.connFor(addr)
	if !ok || !conn.sendRaw(kind, body) {
		return false
	}
	if t.backlogExceeded(conn) {
		t.connDead(conn) // stalled peer: cut instead of queueing unboundedly
		return false
	}
	return true
}

// enqueueFrame appends msg's frame as one unit of the given kind straight
// into the peer's batch buffer — the zero-copy send path: the payload
// codec writes into the same pooled buffer the socket write reads from.
// size is the precomputed frame length (frameSize), asserted against what
// the codec actually wrote.
func (t *TCPTransport) enqueueFrame(addr string, kind byte, msg *Message, size int64) bool {
	conn, ok := t.connFor(addr)
	if !ok {
		return false
	}
	ok = conn.appendUnit(kind, func(e *wire.Enc) bool {
		start := e.Len()
		if !appendFrame(e, msg) {
			return false
		}
		if int64(e.Len()-start) != size {
			panic(fmt.Sprintf("p2p: frame for %q measured %d bytes, wrote %d",
				msg.Type, size, e.Len()-start))
		}
		return true
	})
	if ok && t.backlogExceeded(conn) {
		t.connDead(conn) // stalled peer: cut instead of queueing unboundedly
		return false
	}
	return ok
}

// --- unit handling ---------------------------------------------------------

func (t *TCPTransport) handleUnit(conn *tcpConn, kind byte, body []byte) {
	switch kind {
	case kHello:
		d := wire.NewDec(body)
		addr := d.String()
		count := d.Uvarint()
		ids := make([]NodeID, 0, count)
		for i := uint64(0); i < count; i++ {
			ids = append(ids, NodeID(d.Varint()))
		}
		if d.Err() != nil || addr == "" {
			t.connDead(conn)
			return
		}
		// Validate the advertised hosting against our map: a peer claiming
		// nodes we map elsewhere is a topology misconfiguration.
		for _, id := range ids {
			if id >= 0 && int(id) < len(t.hostOf) && t.hostOf[id] != "" && t.hostOf[id] != addr {
				t.connDead(conn)
				return
			}
		}
		conn.mu.Lock()
		conn.addr = addr
		conn.mu.Unlock()
		t.connMu.Lock()
		if _, ok := t.conns[addr]; !ok && !t.closed {
			t.conns[addr] = conn // reuse the inbound socket for replies
		}
		t.connMu.Unlock()
	case kData:
		origin := conn.peerAddr()
		if origin == "" {
			return // data before hello: protocol violation, drop
		}
		msg, err := decodeFrameShared(body)
		if err != nil {
			return // undecodable frame: drop (logged by byte counters' absence)
		}
		t.wireMu.Lock()
		t.ws.RecvFrames++
		t.ws.RecvBytes += int64(len(body))
		t.wireMu.Unlock()
		if !t.IsLocal(msg.To) {
			t.markHandled(origin) // misrouted: processed as far as we ever will
			return
		}
		msg.ID = t.nextMsg.Add(1)
		g, ok := t.eng.beginSend(msg.To)
		if !ok {
			return // transport closed underneath the reader
		}
		t.eng.groups[g].inbox <- envelope{msg: msg, origin: origin}
	case kDropEcho:
		msg, err := decodeFrameShared(body)
		if err != nil {
			return
		}
		t.dropToSender(msg)
	case kStatusReq:
		d := wire.NewDec(body)
		nonce := d.Uvarint()
		if d.Err() != nil {
			return
		}
		origin := conn.peerAddr()
		t.wireMu.Lock()
		handled := t.handledFrom[origin]
		sent := t.sentTo[origin]
		t.wireMu.Unlock()
		var e wire.Enc
		e.Uvarint(nonce)
		e.Uvarint(uint64(handled))
		e.Uvarint(uint64(sent))
		e.Bool(t.eng.idleNow())
		conn.sendRaw(kStatusResp, e.Bytes())
	case kStatusResp:
		d := wire.NewDec(body)
		nonce := d.Uvarint()
		st := statusInfo{handled: int64(d.Uvarint()), sent: int64(d.Uvarint()), idle: d.Bool()}
		if d.Err() != nil {
			return
		}
		if origin := conn.peerAddr(); origin != "" {
			// The peer's handled count doubles as the in-flight baseline of
			// PeerStats, refreshed by every status exchange.
			t.wireMu.Lock()
			if st.handled > t.peerHandled[origin] {
				t.peerHandled[origin] = st.handled
			}
			t.wireMu.Unlock()
		}
		t.statusMu.Lock()
		ch := t.statusCh[nonce]
		delete(t.statusCh, nonce)
		t.statusMu.Unlock()
		if ch != nil {
			ch <- st
		}
	case kBarrier:
		d := wire.NewDec(body)
		tag := uint32(d.Uvarint())
		from := d.String()
		if d.Err() != nil {
			return
		}
		t.barrierMu.Lock()
		if t.barriers[tag] == nil {
			t.barriers[tag] = make(map[string]bool)
		}
		t.barriers[tag][from] = true
		t.barrierMu.Unlock()
	case kPing:
		// Echo the probe body back; the sender computes the RTT from it.
		nanos := append([]byte(nil), body...)
		conn.sendRaw(kPong, nanos)
	case kPong:
		d := wire.NewDec(body)
		sent := int64(d.Uvarint())
		if d.Err() != nil {
			return
		}
		if conn.pingSent.Load() == sent {
			conn.pingSent.Store(0)
			conn.lastRTT.Store(time.Now().UnixNano() - sent)
		}
	}
}

// markHandled counts one data frame from the peer as fully processed.
func (t *TCPTransport) markHandled(origin string) {
	if origin == "" {
		return
	}
	t.wireMu.Lock()
	t.handledFrom[origin]++
	t.wireMu.Unlock()
}

// dropToSender runs the drop callback for msg in its (local) sender's
// dispatch group. The forward rides its own goroutine so a dispatcher
// enqueueing into its own full inbox cannot deadlock. Drop echoes arrive
// from socket readers, which outlive the dispatchers during Close, so the
// pending count goes through the closed-checked path.
func (t *TCPTransport) dropToSender(msg *Message) {
	if msg.From < 0 || !t.IsLocal(msg.From) {
		return
	}
	g := t.eng.groupFor(msg.From)
	if !t.eng.beginSendGroup(g) {
		return // transport closed underneath the reader
	}
	go func() { t.eng.groups[g].inbox <- envelope{msg: msg, isDrop: true} }()
}

// --- delivery --------------------------------------------------------------

// deliver implements the transport's delivery policy on the dispatch
// engine: run the local handler, or route the drop notification — to the
// local sender's group like the channel transport, or back over the socket
// when the sender lives in another process.
func (t *TCPTransport) deliver(g int, env envelope) {
	msg := env.msg
	if env.isDrop {
		t.mu.Lock()
		drop := t.drop
		t.mu.Unlock()
		if drop != nil {
			drop(msg)
		}
		t.eng.finishPending(g)
		return
	}
	up := t.view.Online(int(msg.To)) && !t.gate.severed(msg.From, msg.To)
	t.mu.Lock()
	h := t.handler[msg.To]
	drop := t.drop
	t.mu.Unlock()
	if up && h != nil {
		h(msg)
		t.markHandled(env.origin)
		t.eng.finishPending(g)
		return
	}
	// Destination offline or handler-less: failure detection (§4.3). The
	// frame itself is processed either way.
	t.markHandled(env.origin)
	switch {
	case msg.From >= 0 && t.IsLocal(msg.From):
		if drop != nil {
			gFrom := t.eng.groupFor(msg.From)
			if gFrom == g {
				drop(msg)
			} else {
				t.eng.movePending(gFrom, g)
				go func() { t.eng.groups[gFrom].inbox <- envelope{msg: msg, isDrop: true} }()
				return
			}
		}
	case env.origin != "":
		// Bounce the frame to the sender's process; its transport runs the
		// drop callback in the sender's group.
		if size, ok := frameSize(msg); ok {
			t.enqueueFrame(env.origin, kDropEcho, msg, size)
		}
	}
	t.eng.finishPending(g)
}

// --- Transport interface ---------------------------------------------------

// Len returns the number of overlay nodes.
func (t *TCPTransport) Len() int { return t.graph.Len() }

// Graph exposes the shared overlay topology.
func (t *TCPTransport) Graph() *topology.Graph { return t.graph }

// DispatchGroups returns the number of dispatch groups (>= 1).
func (t *TCPTransport) DispatchGroups() int { return t.eng.groupCount() }

// SetGroupBy replaces the node -> dispatch-group mapping while the
// transport is pristine (no message sent yet); see
// ChannelTransport.SetGroupBy for the contract.
func (t *TCPTransport) SetGroupBy(fn func(NodeID) int) bool {
	if fn == nil || t.nextMsg.Load() != 0 {
		return false
	}
	return t.eng.remap(fn)
}

// Counter returns a merged snapshot of the per-group message counters
// (see ChannelTransport.Counter).
func (t *TCPTransport) Counter() *stats.Counter { return t.eng.mergedCounter() }

// Bytes returns a merged snapshot of the per-type traffic volumes. Every
// serializable message is charged its encoded frame length, so the total
// equals the sum of frame lengths that crossed sockets plus those
// delivered locally (cross-check with WireStats).
func (t *TCPTransport) Bytes() *stats.Counter { return t.eng.mergedVolume() }

// SetHandler installs the message handler of a node (consulted only for
// local nodes).
func (t *TCPTransport) SetHandler(id NodeID, h Handler) {
	t.mu.Lock()
	t.handler[id] = h
	t.mu.Unlock()
}

// SetDrop installs the drop callback (§4.3 failure detection). It runs in
// the dispatch group of the message's sender — also when the drop happened
// in another process and was echoed back.
func (t *TCPTransport) SetDrop(fn func(*Message)) {
	t.mu.Lock()
	t.drop = fn
	t.mu.Unlock()
}

// Liveness returns this process's membership view: authoritative for the
// local nodes, convergent on the remote ones through the protocol layer's
// liveness gossip (remote nodes default to alive until evidence arrives).
func (t *TCPTransport) Liveness() *liveness.View { return t.view }

// Online reports this process's view of a node's connectivity.
func (t *TCPTransport) Online(id NodeID) bool { return t.view.Online(int(id)) }

// SetOnline flips a node's connectivity in this process's view.
func (t *TCPTransport) SetOnline(id NodeID, up bool) {
	if up {
		t.view.MarkAlive(int(id))
	} else {
		t.view.MarkDead(int(id))
	}
}

// OnlineCount returns the number of nodes online in this process's view.
func (t *TCPTransport) OnlineCount() int { return t.view.OnlineCount() }

// OnlineIDs returns the sorted ids of nodes online in this process's view.
func (t *TCPTransport) OnlineIDs() []NodeID { return onlineNodeIDs(t.view) }

// Neighbors returns the online neighbors of a node, in ascending id order.
// Links severed by the installed LinkFilter are not traversable.
func (t *TCPTransport) Neighbors(id NodeID) []NodeID {
	var out []NodeID
	for _, v := range t.graph.Neighbors(int(id)) {
		if t.view.Online(v) && !t.gate.severed(id, NodeID(v)) {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// SetLinkFilter installs the partition hook (see Transport.SetLinkFilter).
// On a TCP deployment every process installs the same scripted filter: an
// outbound frame on a severed link is charged and dropped before the
// socket, and a frame that slipped out before the cut is dropped (and
// drop-echoed to its origin) at delivery time on the receiving side, so
// both directions degrade even if installation is not simultaneous.
func (t *TCPTransport) SetLinkFilter(fn LinkFilter) { t.gate.set(fn) }

// Degree returns the node's static overlay degree.
func (t *TCPTransport) Degree(id NodeID) int { return t.graph.Degree(int(id)) }

// HopsBetween returns the hop distance from a to b, or -1 beyond radius.
func (t *TCPTransport) HopsBetween(a, b NodeID, radius int) int {
	return t.graph.HopsBetween(int(a), int(b), radius)
}

// charge accounts n payload-less transmissions (walks and floods) under
// group 0, like the channel transport; WireStats books them as frameless.
func (t *TCPTransport) charge(typ string, n int64) {
	t.eng.chargeBulk(0, typ, n)
	t.chargeFrameless(n, n*BaseMessageBytes)
}

// chargeFrameless records traffic charged without an encoded frame.
func (t *TCPTransport) chargeFrameless(msgs, bytes int64) {
	t.wireMu.Lock()
	t.ws.ChargedMsgs += msgs
	t.ws.ChargedBytes += bytes
	t.wireMu.Unlock()
}

// chargeGroupOf picks the counter group for a send: the local sender's
// group, or group 0 for frames originated by drivers on behalf of remote
// nodes (which should not happen in a well-partitioned deployment).
func (t *TCPTransport) chargeGroupOf(msg *Message) int {
	if msg.From >= 0 && t.IsLocal(msg.From) {
		return t.eng.groupFor(msg.From)
	}
	return 0
}

// Send serializes the message into a wire frame and delivers it: frames
// for local nodes go through the dispatch engine (decoded back through the
// codec, so local and remote delivery share one serialization pipeline),
// frames for remote nodes ride the peer connection's writer goroutine. A
// message whose payload has no registered codec can only be delivered
// locally (shared-memory fallback, Sizer accounting); sending one to a
// remote node counts it as sent and runs the drop callback. Messages to
// unreachable processes (dead connections, failed dials) are likewise
// counted and dropped — the §4.3 failure-detection path.
func (t *TCPTransport) Send(msg *Message) {
	if msg.To < 0 || int(msg.To) >= t.graph.Len() {
		panic(fmt.Sprintf("p2p: send to out-of-range node %d", msg.To))
	}
	if t.eng.isClosed() {
		panic("p2p: send on closed TCPTransport")
	}
	id := t.nextMsg.Add(1)
	if msg.ID == 0 {
		msg.ID = id
	}
	size, framed := frameSize(msg)

	if t.IsLocal(msg.To) {
		if framed {
			// Round-trip through the codec out of a pooled buffer: local
			// delivery observes exactly what a remote process would have
			// decoded, without the old Encode allocation.
			e := wire.GetEnc()
			if appendFrame(e, msg) {
				if m2, err := decodeFrameShared(e.Bytes()); err == nil {
					m2.ID = msg.ID
					msg = m2
				}
			}
			e.Release()
			t.wireMu.Lock()
			t.ws.LocalFrames++
			t.ws.LocalBytes += size
			t.wireMu.Unlock()
		} else {
			size = int64(BaseMessageBytes)
			if s, ok := msg.Payload.(Sizer); ok {
				size += int64(s.WireSize())
			}
			t.chargeFrameless(1, size)
		}
		g, ok := t.eng.beginSend(msg.To)
		if !ok {
			panic("p2p: send on closed TCPTransport")
		}
		t.eng.chargeMessage(g, msg.Type, size)
		go func() { t.eng.groups[g].inbox <- envelope{msg: msg} }()
		return
	}

	addr := t.hostOf[msg.To]
	g := t.chargeGroupOf(msg)
	if !framed {
		size = int64(BaseMessageBytes)
		if s, ok := msg.Payload.(Sizer); ok {
			size += int64(s.WireSize())
		}
		t.eng.chargeMessage(g, msg.Type, size)
		t.chargeFrameless(1, size)
		t.dropToSender(msg)
		return
	}
	t.eng.chargeMessage(g, msg.Type, size)
	if t.gate.severed(msg.From, msg.To) {
		// Partitioned link: the frame is charged as sent but never reaches
		// the socket — the sender observes the same §4.3 drop evidence a
		// dead connection produces.
		t.chargeFrameless(1, size)
		t.dropToSender(msg)
		return
	}
	if addr == "" || !t.enqueueFrame(addr, kData, msg, size) {
		// Unmapped node or dead connection: the message was charged as
		// sent (the bytes hit the wire as far as accounting is concerned)
		// but no frame bucket took it — book it frameless so the
		// WireStats identity survives the §4.3 failure path.
		t.chargeFrameless(1, size)
		t.dropToSender(msg)
		return
	}
	t.wireMu.Lock()
	t.sentTo[addr]++
	t.ws.SentFrames++
	t.ws.SentBytes += size
	t.wireMu.Unlock()
}

// SendNew builds and sends a message.
func (t *TCPTransport) SendNew(typ string, from, to NodeID, ttl int, payload any) {
	t.Send(&Message{Type: typ, From: from, To: to, TTL: ttl, Payload: payload})
}

// Flood delivers a message of the given type from src to every node within
// ttl hops using Gnutella-style constrained broadcast, traversing the
// shared topology in this process (§6.2.3 accounting semantics).
func (t *TCPTransport) Flood(typ string, src NodeID, ttl int, payload any, visit func(NodeID)) map[NodeID]bool {
	return runFlood(t, typ, src, ttl, visit)
}

// SelectiveWalk performs the §4.1 find-protocol walk over the shared
// topology; the accept callback only sees local protocol state.
func (t *TCPTransport) SelectiveWalk(typ string, src NodeID, maxHops int, accept func(NodeID) bool) WalkResult {
	return runWalk(t, typ, src, maxHops, accept, selectiveChoice(t.Degree))
}

// RandomWalk is the blind baseline walk (same locality caveat as
// SelectiveWalk). The choice is pseudo-random per call.
func (t *TCPTransport) RandomWalk(typ string, src NodeID, maxHops int, accept func(NodeID) bool) WalkResult {
	step := t.nextMsg.Add(1)
	return runWalk(t, typ, src, maxHops, accept, func(cands []NodeID) NodeID {
		step = step*6364136223846793005 + 1442695040888963407
		return cands[int(step>>33)%len(cands)]
	})
}

// Exec runs fn serialized with every local handler (see
// ChannelTransport.Exec). It quiesces this process only — align remote
// drivers with Barrier.
func (t *TCPTransport) Exec(fn func()) { t.eng.exec(fn) }

// After schedules fn on the dispatcher of owner's group, delaySeconds of
// virtual time from now, scaled by TimerScale (see ChannelTransport.After
// for the serialization and Settle/Close contract).
func (t *TCPTransport) After(owner NodeID, delaySeconds float64, fn func()) {
	t.eng.after(owner, time.Duration(delaySeconds*float64(t.cfg.TimerScale)), fn)
}

// Settle blocks until the whole deployment is quiescent as far as this
// process can observe: the local dispatch groups are drained and every
// reachable peer reports, twice in a row with unchanged counters, that it
// is idle, has handled every data frame we sent it, and has sent nothing
// we have not handled. Unreachable peers are treated as departed (their
// frames were dropped). Calling Settle from a handler panics.
func (t *TCPTransport) Settle() {
	if t.eng.onDispatcher() {
		panic("p2p: Settle called from a handler/timer on the dispatcher (would deadlock); drivers only")
	}
	stable := 0
	prev := make(map[string][2]int64)
	for stable < 2 {
		t.eng.waitIdle()
		quiet := true
		cur := make(map[string][2]int64)
		for _, addr := range t.peerAddrs() {
			if _, ok := t.liveConn(addr); !ok {
				continue // unreachable: nothing in flight we could wait for
			}
			st, ok := t.peerStatus(addr, 2*time.Second)
			if !ok {
				// The peer is connected but did not answer in time (e.g.
				// buried in a long merge): not quiescent — only a departed
				// peer (no live connection) may be skipped.
				quiet = false
				continue
			}
			t.wireMu.Lock()
			mySent := t.sentTo[addr]
			myHandled := t.handledFrom[addr]
			t.wireMu.Unlock()
			if !st.idle || st.handled != mySent || st.sent != myHandled {
				quiet = false
			}
			cur[addr] = [2]int64{st.handled, st.sent}
		}
		if !t.eng.idleNow() {
			quiet = false
		}
		if quiet && mapsEqual(cur, prev) {
			stable++
		} else {
			stable = 0
		}
		prev = cur
		if stable < 2 {
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func mapsEqual(a, b map[string][2]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// peerStatus asks one peer for its settle counters.
func (t *TCPTransport) peerStatus(addr string, timeout time.Duration) (statusInfo, bool) {
	ch := make(chan statusInfo, 1)
	t.statusMu.Lock()
	t.nonce++
	nonce := t.nonce
	t.statusCh[nonce] = ch
	t.statusMu.Unlock()
	var e wire.Enc
	e.Uvarint(nonce)
	if !t.enqueue(addr, kStatusReq, e.Bytes()) {
		t.statusMu.Lock()
		delete(t.statusCh, nonce)
		t.statusMu.Unlock()
		return statusInfo{}, false
	}
	select {
	case st := <-ch:
		return st, true
	case <-time.After(timeout):
		t.statusMu.Lock()
		delete(t.statusCh, nonce)
		t.statusMu.Unlock()
		return statusInfo{}, false
	}
}

// Barrier aligns driver phases across processes: it announces the tag to
// every peer process and blocks until every peer's announcement for the
// same tag has arrived (announcements are sticky, so arrival order does
// not matter). Use distinct tags per phase.
func (t *TCPTransport) Barrier(tag uint32, timeout time.Duration) error {
	peers := t.peerAddrs()
	var e wire.Enc
	e.Uvarint(uint64(tag))
	e.String(t.laddr)
	for _, addr := range peers {
		if !t.enqueue(addr, kBarrier, e.Bytes()) {
			return fmt.Errorf("p2p: barrier %d: peer %s unreachable", tag, addr)
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		t.barrierMu.Lock()
		missing := 0
		for _, addr := range peers {
			if !t.barriers[tag][addr] {
				missing++
			}
		}
		t.barrierMu.Unlock()
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("p2p: barrier %d: %d peers missing after %v", tag, missing, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Close settles the local dispatch groups, shuts the listener and every
// connection down and stops the dispatchers. Sending afterwards panics.
func (t *TCPTransport) Close() {
	t.connMu.Lock()
	if t.closed {
		t.connMu.Unlock()
		return
	}
	t.closed = true
	close(t.closeCh)
	conns := append([]*tcpConn(nil), t.allConns...)
	t.connMu.Unlock()
	t.ln.Close()
	t.eng.closeEngine()
	for _, c := range conns {
		c.shutdown()
	}
	t.wg.Wait()
}
