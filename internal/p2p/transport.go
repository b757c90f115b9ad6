package p2p

import (
	"fmt"
	"sync/atomic"

	"p2psum/internal/liveness"
	"p2psum/internal/stats"
	"p2psum/internal/topology"
	"p2psum/internal/wire"
)

// Transport is the overlay substrate the protocol stack (internal/core,
// internal/routing) runs on: it moves messages between nodes, walks and
// floods the overlay, and meters every transmission. The protocol layers
// depend only on this interface, never on a concrete implementation.
//
// Two implementations ship with the package:
//
//   - Network runs over the deterministic discrete-event engine of
//     internal/sim — the stand-in for the paper's SimJava setup (§6.2.1).
//     Runs are reproducible bit-for-bit given a seed.
//
//   - ChannelTransport runs concurrently on goroutines in real time, with
//     per-link latencies and optional packet loss. It expresses scenarios
//     the discrete-event engine cannot (wall-clock interleavings, lossy
//     links) at the price of determinism.
type Transport interface {
	// Len returns the number of overlay nodes.
	Len() int
	// Neighbors returns the online neighbors of a node, in ascending id
	// order (the graph's adjacency order is already deterministic).
	Neighbors(id NodeID) []NodeID
	// Degree returns the node's static overlay degree (online or not),
	// the selection criterion of the §4.1 selective walk and of the
	// degree-based summary-peer election.
	Degree(id NodeID) int
	// HopsBetween returns the hop distance from a to b over the static
	// topology, or -1 when b is more than radius hops away. It is a
	// pairwise query (topology.Graph.HopsBetween): the BFS stops at the
	// level that reaches b, costing the ball around a up to that distance
	// rather than every node within radius, and allocates nothing.
	HopsBetween(a, b NodeID, radius int) int

	// Liveness exposes the transport's membership view — the single truth
	// behind Online/SetOnline. In-memory transports hold one ground-truth
	// view for the whole overlay; a TCP process's view is authoritative for
	// its local nodes and converges on the rest through the protocol
	// layer's liveness gossip. The view's observer (liveness.SetObserver)
	// is the transport-level liveness hook.
	Liveness() *liveness.View
	// Online reports whether the node is believed connected (liveness
	// state Alive; suspects count as offline).
	Online(id NodeID) bool
	// SetOnline flips a node's connectivity in the liveness view: up marks
	// it alive at the next incarnation, down marks it dead.
	SetOnline(id NodeID, up bool)
	// OnlineCount returns the number of connected nodes.
	OnlineCount() int
	// OnlineIDs returns the sorted ids of online nodes.
	OnlineIDs() []NodeID

	// SetHandler installs the message handler of a node.
	SetHandler(id NodeID, h Handler)
	// SetDrop installs the callback invoked whenever a message addressed
	// to an offline or handler-less node is discarded; protocols use it to
	// detect failures (§4.3).
	SetDrop(fn func(*Message))
	// Send delivers msg to msg.To after the link latency, counting it
	// under msg.Type. Messages to offline nodes are counted as sent (the
	// bytes hit the wire) but trigger the drop callback instead.
	Send(msg *Message)
	// SendNew builds and sends a message.
	SendNew(typ string, from, to NodeID, ttl int, payload any)
	// Flood delivers a message of the given type from src to every node
	// within ttl hops using Gnutella-style constrained broadcast,
	// returning the nodes reached and counting every transmission.
	Flood(typ string, src NodeID, ttl int, payload any, visit func(NodeID)) map[NodeID]bool
	// SelectiveWalk performs the paper's find-protocol walk (§4.1, after
	// Adamic et al. [23]): highest-degree unvisited online neighbor first.
	SelectiveWalk(typ string, src NodeID, maxHops int, accept func(NodeID) bool) WalkResult
	// RandomWalk is the blind baseline: uniform random unvisited neighbor.
	RandomWalk(typ string, src NodeID, maxHops int, accept func(NodeID) bool) WalkResult

	// Counter exposes the per-type message counters — the unit of every
	// cost figure in the paper. Transports with sharded bookkeeping
	// return a merged snapshot per call; read it again for fresh totals.
	Counter() *stats.Counter
	// Bytes exposes the per-type traffic volume counters (same snapshot
	// contract as Counter). A message whose payload is serializable — nil,
	// or carrying a registered wire codec — is charged its real encoded
	// frame length; the Sizer estimate is the fallback.
	Bytes() *stats.Counter

	// Exec runs fn serialized with message handlers and returns when fn
	// has run. Protocol drivers wrap state mutations in it so they never
	// race with handler-side mutation: on the single-threaded event
	// engine it is a direct call; on the channel transport fn runs with
	// every dispatch group quiesced (on the dispatcher goroutine itself
	// in single-group mode, behind a barrier parking all dispatchers
	// otherwise). fn must not call Exec or Settle (it would deadlock the
	// dispatcher; the channel transport panics on the detectable cases).
	Exec(fn func())
	// After schedules fn to run once, delaySeconds of virtual time from
	// now, serialized with the message handlers of owner's dispatch group
	// like a delivery (on the channel transport virtual seconds are
	// scaled like link latencies and elapse in real time; on the event
	// engine the timer is a regular event, so Settle's run-to-quiescence
	// executes it as virtual time advances). owner names the node whose
	// protocol state fn mutates — timers must be serialized with that
	// node's handlers, and on a sharded-dispatch transport that means
	// running in its group. Protocols use After for loss-recovery
	// timeouts (e.g. retransmitting a lost §4.2.2 reconciliation token).
	// On the channel transport a pending timer does not count as an
	// in-flight message — Settle does not wait for it — and Close cancels
	// timers that have not fired. fn must not call Exec or Settle.
	After(owner NodeID, delaySeconds float64, fn func())
	// Settle blocks until every in-flight message (and everything sent
	// while delivering it) has been handled. Protocol drivers call it to
	// reach quiescence before reading protocol state.
	Settle()

	// SetLinkFilter installs (or, with nil, removes) the partition hook:
	// a message whose directed link the filter reports severed is counted
	// as sent (the bytes hit the wire) but never delivered — it surfaces
	// through the drop callback exactly like a send to an offline node, so
	// protocols observe a partition as the §4.3 failure evidence it is.
	// Neighbors, walks and floods respect the filter too (a severed link
	// is not traversable). The fault-scenario engine (internal/scenario)
	// scripts partitions by swapping immutable filter closures in and out;
	// on a TCP deployment every process installs the same scripted filter,
	// so both sides of a cut degrade symmetrically without touching
	// sockets or iptables. Installation is atomic and safe at any time.
	SetLinkFilter(fn LinkFilter)
}

// LinkFilter reports whether the directed link from → to is currently
// severed. Implementations must be pure reads of immutable state (the
// hook runs on every delivery and neighbor scan, possibly from many
// goroutines); to change a partition, build a new closure and install it
// with SetLinkFilter.
type LinkFilter func(from, to NodeID) bool

// linkGate is the shared atomic holder for a transport's installed
// LinkFilter. The zero value is an open gate (no filter, no overhead
// beyond one atomic load).
type linkGate struct {
	fn atomic.Pointer[LinkFilter]
}

// set installs fn (nil removes the filter).
func (g *linkGate) set(fn LinkFilter) {
	if fn == nil {
		g.fn.Store(nil)
		return
	}
	g.fn.Store(&fn)
}

// severed reports whether the installed filter cuts from → to.
func (g *linkGate) severed(from, to NodeID) bool {
	p := g.fn.Load()
	return p != nil && (*p)(from, to)
}

// OriginScheduler is the optional interface of transports whose After
// needs to know the calling context. Transport.After(owner, ...) assumes
// it is invoked from owner's own serialized context (or from the idle
// driver); a handler or timer of node A scheduling work for node B's
// group breaks that assumption on a region-sharded kernel, where it
// would push onto another region's live heap. AfterFrom names the
// origin: the node whose serialized context the caller is executing in
// (the message's sender for a handler, the timer's owner for a timer).
// The sharded Network stages cross-region work at the next window
// barrier, exactly like a cross-region message from origin; transports
// whose After is already safe from any goroutine simply do not implement
// the interface, and callers fall back to After.
type OriginScheduler interface {
	AfterFrom(origin, owner NodeID, delaySeconds float64, fn func())
}

// DispatchGrouper is the optional interface of transports that shard
// handler dispatch into concurrently running groups (ChannelTransport with
// ChannelConfig.Dispatchers > 1). Protocol wiring uses it to align dispatch
// groups with protocol regions — internal/core maps every domain onto one
// group (via topology.NearestSeeds over Graph), so independent domains
// reconcile and answer queries in parallel while each domain's handlers
// stay serialized.
type DispatchGrouper interface {
	// DispatchGroups returns the number of dispatch groups (>= 1).
	DispatchGroups() int
	// SetGroupBy replaces the node -> group mapping (reduced modulo
	// DispatchGroups). It reports whether the mapping was applied: a
	// transport that has already carried traffic keeps its mapping and
	// returns false, which is safe — any mapping preserves per-node
	// serialization; the choice only affects parallelism.
	SetGroupBy(fn func(NodeID) int) bool
	// Graph exposes the overlay topology the grouping is computed from.
	Graph() *topology.Graph
}

// Localizer is the optional interface of transports that host only a
// subset of the overlay in this process (TCPTransport). Driver-side
// protocol code consults it to act only for the nodes it owns — e.g.
// core.Construct broadcasts only from local summary peers, so two
// processes calling Construct concurrently each drive their own half of
// the domain. In-memory transports host every node and do not implement
// it.
type Localizer interface {
	// IsLocal reports whether the node's handlers run in this process.
	IsLocal(id NodeID) bool
}

// IsLocal reports whether the node is hosted in this process on the given
// transport: true for every node of an in-memory transport, the
// Localizer's answer otherwise.
func IsLocal(t Transport, id NodeID) bool {
	if l, ok := t.(Localizer); ok {
		return l.IsLocal(id)
	}
	return true
}

// Compile-time conformance of the implementations.
var (
	_ Transport       = (*Network)(nil)
	_ Transport       = (*ChannelTransport)(nil)
	_ Transport       = (*TCPTransport)(nil)
	_ DispatchGrouper = (*Network)(nil)
	_ DispatchGrouper = (*ChannelTransport)(nil)
	_ DispatchGrouper = (*TCPTransport)(nil)
	_ Localizer       = (*TCPTransport)(nil)
	_ OriginScheduler = (*Network)(nil)
)

// frameOf builds the frame header for msg.
func frameOf(msg *Message, hasPayload bool) wire.Frame {
	return wire.Frame{
		Type:       msg.Type,
		From:       int64(msg.From),
		To:         int64(msg.To),
		TTL:        msg.TTL,
		Hops:       msg.Hops,
		HasPayload: hasPayload,
	}
}

// encodeFrame serializes msg into a wire frame when its payload is
// serializable: messages without a payload frame directly, and payloads
// whose message type has a registered wire codec are encoded through it.
// It reports false for payloads the codec registry cannot serialize — the
// caller falls back to shared-memory delivery and Sizer accounting.
func encodeFrame(msg *Message) ([]byte, bool) {
	e := wire.GetEnc()
	defer e.Release()
	if !appendFrame(e, msg) {
		return nil, false
	}
	return append([]byte(nil), e.Bytes()...), true
}

// appendFrame appends msg's full frame encoding to e (codec payload
// included) with no intermediate buffer: the payload codec runs once
// against a pooled counting Enc to learn the length prefix, then once
// against e itself. It reports false — leaving e exactly as it was — when
// the payload has no registered codec or the codec fails.
func appendFrame(e *wire.Enc, msg *Message) bool {
	has := msg.Payload != nil
	var c wire.PayloadCodec
	payloadLen := 0
	if has {
		var ok bool
		c, ok = wire.Lookup(msg.Type)
		if !ok {
			return false
		}
		ce := wire.GetCountEnc()
		err := c.Encode(ce, msg.Payload)
		payloadLen = ce.Len()
		ce.Release()
		if err != nil {
			return false
		}
	}
	f := frameOf(msg, has)
	start := e.Len()
	f.AppendHeaderTo(e, payloadLen)
	if has {
		payloadStart := e.Len()
		if err := c.Encode(e, msg.Payload); err != nil {
			e.Truncate(start)
			return false
		}
		if e.Len()-payloadStart != payloadLen {
			// The codec is non-deterministic: the counted and written
			// lengths disagree, so the frame on the wire is corrupt. This
			// is a wiring bug in the codec, not a runtime condition.
			panic(fmt.Sprintf("p2p: codec for %q wrote %d bytes, counted %d",
				msg.Type, e.Len()-payloadStart, payloadLen))
		}
	}
	return true
}

// frameSize measures the encoded frame length of msg without building the
// bytes (pooled counting Enc all the way down, no allocation). It must
// agree exactly with len(encodeFrame(msg)) — TestByteAccounting pins that.
func frameSize(msg *Message) (int64, bool) {
	has := msg.Payload != nil
	payloadLen := 0
	if has {
		c, ok := wire.Lookup(msg.Type)
		if !ok {
			return 0, false
		}
		ce := wire.GetCountEnc()
		err := c.Encode(ce, msg.Payload)
		payloadLen = ce.Len()
		ce.Release()
		if err != nil {
			return 0, false
		}
	}
	f := frameOf(msg, has)
	return int64(f.SizeWithPayload(payloadLen)), true
}

// decodeFrame reconstructs a Message from a wire frame, decoding the
// payload through the registered codec. Frames without a payload need no
// codec.
func decodeFrame(b []byte) (*Message, error) {
	return decodeFrameWith(b, wire.DecodeFrame)
}

// decodeFrameShared is decodeFrame over a borrowed buffer: the frame-level
// payload blob aliases b instead of being copied, and the type string is
// interned through the registry. Safe because the payload codec consumes
// the blob before this function returns and must not retain it (the
// PayloadCodec contract) — so the caller may reuse b immediately.
func decodeFrameShared(b []byte) (*Message, error) {
	return decodeFrameWith(b, wire.DecodeFrameShared)
}

func decodeFrameWith(b []byte, parse func([]byte) (*wire.Frame, error)) (*Message, error) {
	f, err := parse(b)
	if err != nil {
		return nil, err
	}
	msg := &Message{
		Type: f.Type,
		From: NodeID(f.From),
		To:   NodeID(f.To),
		TTL:  f.TTL,
		Hops: f.Hops,
	}
	if f.HasPayload {
		c, ok := wire.Lookup(f.Type)
		if !ok {
			return nil, fmt.Errorf("p2p: no codec registered for message type %q", f.Type)
		}
		payload, err := c.Decode(f.Payload)
		if err != nil {
			return nil, fmt.Errorf("p2p: decode %q payload: %w", f.Type, err)
		}
		msg.Payload = payload
	}
	return msg, nil
}

// messageWireSize returns the byte size a transport charges for msg: the
// real encoded frame length when the payload is serializable (making the
// paper's cost figures byte-accurate and identical across transports), the
// BaseMessageBytes + Sizer estimate otherwise. The measurement runs the
// codec against a counting Enc — one allocation-free tree walk for
// data-level payloads, the same asymptotics as the old Sizer's NodeCount()
// walk; protocol-level payloads cost a few header bytes to count.
func messageWireSize(msg *Message) int64 {
	if size, ok := frameSize(msg); ok {
		return size
	}
	size := BaseMessageBytes
	if s, ok := msg.Payload.(Sizer); ok {
		size += s.WireSize()
	}
	return int64(size)
}

// linkView is the minimal overlay view the shared walk and flood
// traversals need: neighbor lookup plus a metered charge per transmission.
// Both transports implement it, so the §4.1/§6.2.3 traversal semantics are
// identical by construction.
type linkView interface {
	Neighbors(id NodeID) []NodeID
	// charge accounts n payload-less transmissions of the given type.
	charge(typ string, n int64)
}

// runFlood is the Gnutella-style constrained broadcast shared by both
// transports: each node forwards to all its neighbors except the sender,
// and duplicate deliveries (cycles) are transmitted but not re-forwarded.
// This is the paper's "pure flooding algorithm" cost behaviour (§6.2.3).
func runFlood(v linkView, typ string, src NodeID, ttl int, visit func(NodeID)) map[NodeID]bool {
	type hop struct {
		node NodeID
		from NodeID
		ttl  int
	}
	reached := map[NodeID]bool{src: true}
	if visit != nil {
		visit(src)
	}
	queue := []hop{{node: src, from: src, ttl: ttl}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h.ttl == 0 {
			continue
		}
		for _, nb := range v.Neighbors(h.node) {
			if nb == h.from {
				continue
			}
			v.charge(typ, 1) // transmission on the wire
			if reached[nb] {
				continue // duplicate: received, dropped, not re-forwarded
			}
			reached[nb] = true
			if visit != nil {
				visit(nb)
			}
			queue = append(queue, hop{node: nb, from: h.node, ttl: h.ttl - 1})
		}
	}
	return reached
}

// runWalk is the TTL-bounded walk shared by both transports: move to the
// neighbor picked by choose until accept returns true or maxHops is
// exhausted; dead ends backtrack.
func runWalk(v linkView, typ string, src NodeID, maxHops int, accept func(NodeID) bool, choose func([]NodeID) NodeID) WalkResult {
	res := WalkResult{Found: -1, Path: []NodeID{src}}
	if accept(src) {
		res.Found = src
		return res
	}
	visited := map[NodeID]bool{src: true}
	stack := []NodeID{src}
	cur := src
	for res.Messages < maxHops {
		var cands []NodeID
		for _, nb := range v.Neighbors(cur) {
			if !visited[nb] {
				cands = append(cands, nb)
			}
		}
		if len(cands) == 0 {
			// Backtrack.
			if len(stack) <= 1 {
				return res
			}
			stack = stack[:len(stack)-1]
			cur = stack[len(stack)-1]
			continue
		}
		next := choose(cands)
		visited[next] = true
		v.charge(typ, 1)
		res.Messages++
		res.Path = append(res.Path, next)
		stack = append(stack, next)
		cur = next
		if accept(cur) {
			res.Found = cur
			return res
		}
	}
	return res
}

// selectiveChoice picks the highest-degree candidate, ties breaking on the
// lower node id — the §4.1 find-protocol criterion.
func selectiveChoice(degree func(NodeID) int) func([]NodeID) NodeID {
	return func(cands []NodeID) NodeID {
		best := cands[0]
		for _, c := range cands[1:] {
			if degree(c) > degree(best) || (degree(c) == degree(best) && c < best) {
				best = c
			}
		}
		return best
	}
}
