// Package p2p is the unstructured overlay substrate: message transport
// behind the Transport interface, with online/offline state, TTL-bounded
// flooding and the selective walk of Adamic et al. [23] that the paper's
// find protocol uses (§4.1).
//
// The package deliberately knows nothing about summaries: protocol logic
// lives in internal/core (summary management) and internal/routing (query
// routing); p2p only moves messages and counts them. Protocol layers
// depend on the Transport interface; the two concrete transports are
// Network (deterministic, discrete-event) and ChannelTransport
// (concurrent, real-time).
package p2p

import (
	"fmt"
	"math/rand"

	"p2psum/internal/liveness"
	"p2psum/internal/sim"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
)

// NodeID identifies an overlay node (index into the topology graph).
type NodeID int

// Message is one overlay message. Payloads are protocol-defined.
type Message struct {
	ID      uint64
	Type    string
	From    NodeID
	To      NodeID
	TTL     int
	Hops    int
	Payload any
}

// Handler consumes messages delivered to a node.
type Handler func(msg *Message)

// Sizer is implemented by payloads that know their wire size; the network
// charges them to the byte counters (the paper's §6.1.1 storage model sets
// the unit: ~512 bytes per summary node).
type Sizer interface {
	WireSize() int
}

// BaseMessageBytes is the accounted size of a payload-less protocol
// message (headers, ids, freshness values).
const BaseMessageBytes = 64

// Network couples a topology with the event engine and tracks the message
// traffic per type — the unit of every cost figure in the paper ("the cost
// of query routing, which is measured in term of the number of exchanged
// messages"). It is the deterministic, sim-backed Transport.
type Network struct {
	engine  *sim.Engine
	graph   *topology.Graph
	rng     *rand.Rand
	view    *liveness.View
	handler []Handler
	counter *stats.Counter
	bytes   *stats.Counter
	nextMsg uint64
	// DirectLatency is used for node pairs without an overlay edge (e.g. a
	// query sent straight to a relevant peer found in a summary).
	DirectLatency float64
	// drop is invoked (if set via SetDrop) whenever a message addressed
	// to an offline node is discarded; protocols use it to detect
	// failures (§4.3: "a partner who has tried to send push or query
	// messages to SP will detect its departure").
	drop func(msg *Message)
	// shard/books switch the network into parallel mode (see region.go):
	// events run on a region-sharded kernel instead of engine, and
	// traffic is charged to per-region books merged on read. Exactly one
	// of engine and shard is non-nil.
	shard *sim.Sharded
	books []regionBook
	// gate holds the partition hook (SetLinkFilter); severed links route
	// deliveries to the drop callback and vanish from Neighbors. In
	// sharded mode a cut is deterministic only when it is domain-aligned
	// like every other cross-region interaction (see region.go).
	gate linkGate
}

// NewNetwork builds a network over the graph. All nodes start online.
func NewNetwork(engine *sim.Engine, graph *topology.Graph, seed int64) *Network {
	n := &Network{
		engine:        engine,
		graph:         graph,
		rng:           rand.New(rand.NewSource(seed)),
		view:          liveness.NewView(graph.Len(), nil),
		handler:       make([]Handler, graph.Len()),
		counter:       stats.NewCounter(),
		bytes:         stats.NewCounter(),
		DirectLatency: 0.100,
	}
	return n
}

// Engine returns the underlying event engine (nil in sharded mode; use
// Sharded then).
func (n *Network) Engine() *sim.Engine { return n.engine }

// Graph returns the overlay topology.
func (n *Network) Graph() *topology.Graph { return n.graph }

// Len returns the number of nodes.
func (n *Network) Len() int { return n.graph.Len() }

// Counter exposes the per-type message counters. In sharded mode the
// per-region books are merged into a fresh snapshot on every call.
func (n *Network) Counter() *stats.Counter {
	if n.books == nil {
		return n.counter
	}
	return mergedBooks(n.books, func(b *regionBook) *stats.Counter { return b.counter })
}

// Bytes exposes the per-type traffic volume counters (merged on read in
// sharded mode, like Counter). Payloads implementing Sizer are charged
// their wire size; everything else costs BaseMessageBytes.
func (n *Network) Bytes() *stats.Counter {
	if n.books == nil {
		return n.bytes
	}
	return mergedBooks(n.books, func(b *regionBook) *stats.Counter { return b.bytes })
}

// Rand returns the network's deterministic random source.
func (n *Network) Rand() *rand.Rand { return n.rng }

// SetHandler installs the message handler of a node.
func (n *Network) SetHandler(id NodeID, h Handler) { n.handler[id] = h }

// SetDrop installs the drop callback (§4.3 failure detection).
func (n *Network) SetDrop(fn func(*Message)) { n.drop = fn }

// SetLinkFilter installs the partition hook (see Transport.SetLinkFilter).
func (n *Network) SetLinkFilter(fn LinkFilter) { n.gate.set(fn) }

// Liveness returns the network's membership view — the ground truth of the
// whole overlay on this in-memory transport.
func (n *Network) Liveness() *liveness.View { return n.view }

// Online reports whether the node is currently connected.
func (n *Network) Online(id NodeID) bool { return n.view.Online(int(id)) }

// SetOnline flips a node's connectivity in the liveness view.
func (n *Network) SetOnline(id NodeID, up bool) {
	if up {
		n.view.MarkAlive(int(id))
	} else {
		n.view.MarkDead(int(id))
	}
}

// OnlineCount returns the number of connected nodes.
func (n *Network) OnlineCount() int { return n.view.OnlineCount() }

// Neighbors returns the online neighbors of a node, in ascending id order
// (the graph's adjacency order is already deterministic).
func (n *Network) Neighbors(id NodeID) []NodeID {
	var out []NodeID
	for _, v := range n.graph.Neighbors(int(id)) {
		if n.view.Online(v) && !n.gate.severed(id, NodeID(v)) {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// Degree returns the node's static overlay degree.
func (n *Network) Degree(id NodeID) int { return n.graph.Degree(int(id)) }

// HopsBetween returns the hop distance from a to b, or -1 beyond radius.
func (n *Network) HopsBetween(a, b NodeID, radius int) int {
	return n.graph.HopsBetween(int(a), int(b), radius)
}

// HopsWithin returns BFS hop distances from src, bounded by radius. It is
// not on the protocol path — core asks pairwise through HopsBetween — and
// is kept for callers that want the whole distance map.
func (n *Network) HopsWithin(src NodeID, radius int) map[NodeID]int {
	dist := n.graph.BFSWithin(int(src), radius)
	out := make(map[NodeID]int, len(dist))
	for v, d := range dist {
		out[NodeID(v)] = d
	}
	return out
}

// Exec runs fn immediately: the event kernel only executes between
// Settle windows on the driver goroutine, so driver code is always
// serialized with handlers (in sharded mode the region workers are
// quiescent whenever the driver runs).
func (n *Network) Exec(fn func()) { fn() }

// After schedules fn delaySeconds of virtual time from now. In
// sequential mode the engine is single-threaded, so fn is serialized
// with handlers regardless of which node owns the timer; in sharded
// mode the timer runs in the owner's region, at that region's clock.
func (n *Network) After(owner NodeID, delaySeconds float64, fn func()) {
	if n.shard != nil {
		r := n.shard.RegionOf(int(owner))
		at := n.shard.RegionNow(r) + sim.Seconds(delaySeconds)
		n.shard.Schedule(int(owner), int(owner), at, fn)
		return
	}
	n.engine.After(sim.Seconds(delaySeconds), fn)
}

// AfterFrom schedules fn in owner's region from code executing in
// origin's region (OriginScheduler). In sharded mode a cross-region
// timer is staged at the next window barrier like a cross-region
// message, stamped with the origin region's clock; same-region (and
// sequential mode) matches After.
func (n *Network) AfterFrom(origin, owner NodeID, delaySeconds float64, fn func()) {
	if n.shard != nil {
		at := n.shard.RegionNow(n.shard.RegionOf(int(origin))) + sim.Seconds(delaySeconds)
		n.shard.Schedule(int(origin), int(owner), at, fn)
		return
	}
	n.engine.After(sim.Seconds(delaySeconds), fn)
}

// Settle runs the event kernel to quiescence, delivering every in-flight
// message and everything sent while handling it.
func (n *Network) Settle() {
	if n.shard != nil {
		n.shard.Run()
		return
	}
	n.engine.Run()
}

// Now returns the current virtual time (the global frontier in sharded
// mode).
func (n *Network) Now() sim.Time {
	if n.shard != nil {
		return n.shard.Now()
	}
	return n.engine.Now()
}

// latencyBetween picks the edge latency when adjacent, DirectLatency
// otherwise.
func (n *Network) latencyBetween(a, b NodeID) float64 {
	if l, ok := n.graph.LatencyOK(int(a), int(b)); ok {
		return l
	}
	return n.DirectLatency
}

// charge accounts n payload-less transmissions (walks and floods).
func (n *Network) charge(typ string, k int64) {
	n.counter.Add(typ, k)
	n.bytes.Add(typ, k*BaseMessageBytes)
}

// Send schedules delivery of msg from msg.From to msg.To, counting it under
// msg.Type. Messages to offline or handler-less nodes are counted as sent
// (the bytes hit the wire) but trigger Drop instead of a handler. Messages
// whose payload is serializable (nil, or with a registered wire codec) are
// charged their real encoded frame length; the Sizer estimate remains the
// fallback, so discrete-event and TCP runs report comparable byte counts.
func (n *Network) Send(msg *Message) {
	if msg.To < 0 || int(msg.To) >= n.graph.Len() {
		panic(fmt.Sprintf("p2p: send to out-of-range node %d", msg.To))
	}
	if n.shard != nil {
		n.sendSharded(msg)
		return
	}
	n.nextMsg++
	if msg.ID == 0 {
		msg.ID = n.nextMsg
	}
	n.counter.Inc(msg.Type)
	n.bytes.Add(msg.Type, messageWireSize(msg))
	lat := n.latencyBetween(msg.From, msg.To)
	n.engine.After(sim.Seconds(lat), func() { n.deliver(msg) })
}

// deliver hands msg to its destination handler, or to the drop callback
// when the node is offline or handler-less — or when the link filter
// severs the link at delivery time (a message in flight when a partition
// lands is lost to it, like a packet on a cut cable).
func (n *Network) deliver(msg *Message) {
	if n.gate.severed(msg.From, msg.To) ||
		!n.view.Online(int(msg.To)) || n.handler[msg.To] == nil {
		if n.drop != nil {
			n.drop(msg)
		}
		return
	}
	n.handler[msg.To](msg)
}

// SendNew builds and sends a message.
func (n *Network) SendNew(typ string, from, to NodeID, ttl int, payload any) {
	n.Send(&Message{Type: typ, From: from, To: to, TTL: ttl, Payload: payload})
}

// Flood delivers a message of the given type from src to every node within
// ttl hops using Gnutella-style constrained broadcast. It returns the nodes
// reached and counts every transmission (§6.2.3).
func (n *Network) Flood(typ string, src NodeID, ttl int, payload any, visit func(NodeID)) map[NodeID]bool {
	return runFlood(n.linkFor(src), typ, src, ttl, visit)
}

// WalkResult is the outcome of a walk.
type WalkResult struct {
	// Found is the node that satisfied the predicate, or -1.
	Found NodeID
	// Path is the sequence of visited nodes, starting at the origin.
	Path []NodeID
	// Messages is the number of transmissions the walk used.
	Messages int
}

// SelectiveWalk performs the paper's find protocol walk (§4.1, after [23]):
// starting at src, repeatedly move to the highest-degree unvisited online
// neighbor until accept returns true or maxHops is exhausted. Ties break on
// the lower node id; dead ends backtrack.
func (n *Network) SelectiveWalk(typ string, src NodeID, maxHops int, accept func(NodeID) bool) WalkResult {
	return runWalk(n.linkFor(src), typ, src, maxHops, accept, selectiveChoice(n.Degree))
}

// RandomWalk is the blind baseline: uniform random unvisited neighbor.
// The choice draws from the network-wide rng, so in sharded mode it is
// driver-context only (walks from concurrent region workers would race
// on the source).
func (n *Network) RandomWalk(typ string, src NodeID, maxHops int, accept func(NodeID) bool) WalkResult {
	return runWalk(n.linkFor(src), typ, src, maxHops, accept, func(cands []NodeID) NodeID {
		return cands[n.rng.Intn(len(cands))]
	})
}

// OnlineIDs returns the sorted ids of online nodes.
func (n *Network) OnlineIDs() []NodeID { return onlineNodeIDs(n.view) }

// onlineNodeIDs converts the view's ascending online ids to NodeIDs.
func onlineNodeIDs(v *liveness.View) []NodeID {
	ids := v.OnlineIDs()
	out := make([]NodeID, len(ids))
	for i, id := range ids {
		out[i] = NodeID(id)
	}
	return out
}
