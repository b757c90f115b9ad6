package p2p

import (
	"math/rand"
	"testing"
	"testing/quick"

	"p2psum/internal/sim"
	"p2psum/internal/topology"
)

// lineGraph builds 0-1-2-...-n-1 with unit latencies.
func lineGraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(n)
	for i := 0; i < n-1; i++ {
		if err := g.AddEdge(i, i+1, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func baNetwork(t *testing.T, n int, seed int64) (*Network, *sim.Engine) {
	t.Helper()
	g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New()
	return NewNetwork(e, g, seed), e
}

func TestSendAndHandle(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 3), 1)
	var got []string
	net.SetHandler(1, func(m *Message) { got = append(got, m.Type) })
	net.SendNew("hello", 0, 1, 0, nil)
	e.Run()
	if len(got) != 1 || got[0] != "hello" {
		t.Errorf("delivered = %v", got)
	}
	if net.Counter().Get("hello") != 1 {
		t.Errorf("counter = %d", net.Counter().Get("hello"))
	}
}

func TestSendLatency(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 3), 1)
	var at sim.Time
	net.SetHandler(1, func(m *Message) { at = e.Now() })
	net.SendNew("x", 0, 1, 0, nil) // edge latency 0.01
	e.Run()
	if at != sim.Seconds(0.01) {
		t.Errorf("edge delivery at %v, want 0.01", at)
	}
	// Non-adjacent: DirectLatency.
	var at2 sim.Time
	net.SetHandler(2, func(m *Message) { at2 = e.Now() })
	start := e.Now()
	net.SendNew("x", 0, 2, 0, nil)
	e.Run()
	if at2-start != sim.Seconds(net.DirectLatency) {
		t.Errorf("direct delivery took %v, want %v", at2-start, net.DirectLatency)
	}
}

func TestSendToOffline(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 2), 1)
	dropped := 0
	net.SetDrop(func(m *Message) { dropped++ })
	net.SetHandler(1, func(m *Message) { t.Error("offline node handled message") })
	net.SetOnline(1, false)
	net.SendNew("x", 0, 1, 0, nil)
	e.Run()
	if dropped != 1 {
		t.Errorf("dropped = %d", dropped)
	}
	// Message is still counted: it was transmitted.
	if net.Counter().Get("x") != 1 {
		t.Error("offline message not counted")
	}
	if net.OnlineCount() != 1 {
		t.Errorf("OnlineCount = %d", net.OnlineCount())
	}
	ids := net.OnlineIDs()
	if len(ids) != 1 || ids[0] != 0 {
		t.Errorf("OnlineIDs = %v", ids)
	}
}

func TestSendPanicsOutOfRange(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 2), 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range send did not panic")
		}
	}()
	net.SendNew("x", 0, 99, 0, nil)
}

func TestFloodLine(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 6), 1)
	var visited []NodeID
	reached := net.Flood("q", 0, 3, nil, func(id NodeID) { visited = append(visited, id) })
	// TTL 3 on a line reaches nodes 0..3.
	if len(reached) != 4 {
		t.Errorf("reached %v", reached)
	}
	// Transmissions: 0->1, 1->2, 2->3 = 3 (no branching on a line).
	if got := net.Counter().Get("q"); got != 3 {
		t.Errorf("flood messages = %d, want 3", got)
	}
	if len(visited) != 4 {
		t.Errorf("visit callback saw %v", visited)
	}
}

func TestFloodCountsDuplicates(t *testing.T) {
	// Triangle: flooding from 0 with TTL 2 transmits on every edge
	// direction except back to the sender; duplicates are counted.
	g := topology.NewGraph(3)
	g.AddEdge(0, 1, 0.01)
	g.AddEdge(1, 2, 0.01)
	g.AddEdge(0, 2, 0.01)
	net := NewNetwork(sim.New(), g, 1)
	reached := net.Flood("q", 0, 2, nil, nil)
	if len(reached) != 3 {
		t.Errorf("reached = %v", reached)
	}
	// 0->1, 0->2 then 1->2 (dup), 2->1 (dup) = 4 transmissions.
	if got := net.Counter().Get("q"); got != 4 {
		t.Errorf("messages = %d, want 4 (duplicates hit the wire)", got)
	}
}

func TestFloodSkipsOffline(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 5), 1)
	net.SetOnline(2, false)
	reached := net.Flood("q", 0, 4, nil, nil)
	if reached[NodeID(3)] || reached[NodeID(4)] {
		t.Error("flood passed through an offline node")
	}
	if !reached[NodeID(1)] {
		t.Error("flood failed to reach node 1")
	}
}

func TestSelectiveWalkFindsHub(t *testing.T) {
	net, _ := baNetwork(t, 300, 7)
	// The selective walk climbs the degree gradient, so it should find a
	// high-degree node quickly.
	res := net.SelectiveWalk("find", 250, 20, func(id NodeID) bool {
		return net.Graph().Degree(int(id)) >= 10
	})
	if res.Found < 0 {
		t.Fatalf("selective walk failed: path %v", res.Path)
	}
	if res.Messages > 10 {
		t.Errorf("selective walk used %d hops; expected fast hub discovery", res.Messages)
	}
	if net.Counter().Get("find") != int64(res.Messages) {
		t.Error("walk messages not counted")
	}
}

func TestWalkAcceptAtOrigin(t *testing.T) {
	net, _ := baNetwork(t, 50, 8)
	res := net.SelectiveWalk("find", 3, 10, func(id NodeID) bool { return id == 3 })
	if res.Found != 3 || res.Messages != 0 || len(res.Path) != 1 {
		t.Errorf("origin-accepting walk = %+v", res)
	}
}

func TestWalkExhaustsBudget(t *testing.T) {
	net, _ := baNetwork(t, 50, 9)
	res := net.SelectiveWalk("find", 0, 5, func(id NodeID) bool { return false })
	if res.Found != -1 {
		t.Error("impossible predicate found a node")
	}
	if res.Messages > 5 {
		t.Errorf("walk overshot budget: %d", res.Messages)
	}
}

func TestWalkBacktracksDeadEnd(t *testing.T) {
	// Star with a pendant: 0 is the hub; walk from a leaf must backtrack
	// through the hub to find the other leaf.
	g := topology.NewGraph(4)
	g.AddEdge(0, 1, 0.01)
	g.AddEdge(0, 2, 0.01)
	g.AddEdge(0, 3, 0.01)
	net := NewNetwork(sim.New(), g, 1)
	res := net.SelectiveWalk("find", 1, 10, func(id NodeID) bool { return id == 3 })
	if res.Found != 3 {
		t.Errorf("walk with backtracking failed: %+v", res)
	}
}

func TestRandomWalk(t *testing.T) {
	net, _ := baNetwork(t, 200, 10)
	res := net.RandomWalk("find", 0, 200, func(id NodeID) bool { return id == 150 })
	// May or may not find it, but must respect the budget and count
	// messages consistently.
	if res.Messages > 200 {
		t.Errorf("random walk overshot budget: %d", res.Messages)
	}
	if res.Found >= 0 && res.Found != 150 {
		t.Errorf("random walk found the wrong node: %d", res.Found)
	}
}

func TestNeighborsFiltersOffline(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 3), 1)
	net.SetOnline(2, false)
	nb := net.Neighbors(1)
	if len(nb) != 1 || nb[0] != 0 {
		t.Errorf("Neighbors = %v", nb)
	}
}

// Property: flooding with TTL t reaches exactly the online BFS ball of
// radius t (when all nodes are online).
func TestQuickFloodMatchesBFS(t *testing.T) {
	f := func(seed int64, ttlRaw uint8) bool {
		ttl := int(ttlRaw % 4)
		g, err := topology.BarabasiAlbert(80, 2, nil, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		net := NewNetwork(sim.New(), g, seed)
		reached := net.Flood("q", 0, ttl, nil, nil)
		want := g.BFSWithin(0, ttl)
		if len(reached) != len(want) {
			return false
		}
		for id := range want {
			if !reached[NodeID(id)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: selective walks never revisit a node.
func TestQuickWalkNoRevisit(t *testing.T) {
	f := func(seed int64) bool {
		g, err := topology.BarabasiAlbert(60, 2, nil, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		net := NewNetwork(sim.New(), g, seed)
		res := net.SelectiveWalk("w", 5, 30, func(NodeID) bool { return false })
		seen := make(map[NodeID]bool)
		for _, id := range res.Path {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestByteAccounting(t *testing.T) {
	e := sim.New()
	net := NewNetwork(e, lineGraph(t, 3), 1)
	net.SetHandler(1, func(*Message) {})
	net.SendNew("plain", 0, 1, 0, nil)
	net.SendNew("unregistered", 0, 1, 0, struct{ n int }{1000})
	e.Run()
	// A payload-less message is serializable without a codec: it is
	// charged its real encoded frame length.
	frame, ok := encodeFrame(&Message{Type: "plain", From: 0, To: 1})
	if !ok {
		t.Fatal("nil-payload message not frameable")
	}
	if got := net.Bytes().Get("plain"); got != int64(len(frame)) {
		t.Errorf("plain bytes = %d, want frame length %d", got, len(frame))
	}
	// A payload without a registered codec is charged the flat base
	// message cost.
	if got := net.Bytes().Get("unregistered"); got != BaseMessageBytes {
		t.Errorf("unregistered bytes = %d, want %d", got, BaseMessageBytes)
	}
	if want := int64(len(frame)) + BaseMessageBytes; net.Bytes().Total() != want {
		t.Errorf("total bytes = %d, want %d", net.Bytes().Total(), want)
	}
}
