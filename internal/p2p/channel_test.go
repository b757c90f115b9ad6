package p2p

import (
	"math/rand"
	"sync"
	"testing"

	"p2psum/internal/sim"
	"p2psum/internal/topology"
)

func testGraph(t *testing.T, n int, seed int64) *topology.Graph {
	t.Helper()
	g, err := topology.BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestChannelTransportDelivery(t *testing.T) {
	g := testGraph(t, 32, 1)
	ct := NewChannelTransport(g, 1, DefaultChannelConfig())
	defer ct.Close()

	var mu sync.Mutex
	got := make(map[NodeID]int)
	for i := 0; i < ct.Len(); i++ {
		id := NodeID(i)
		ct.SetHandler(id, func(msg *Message) {
			mu.Lock()
			got[id]++
			mu.Unlock()
		})
	}
	for i := 1; i < ct.Len(); i++ {
		ct.SendNew("ping", 0, NodeID(i), 0, nil)
	}
	ct.Settle()

	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < ct.Len(); i++ {
		if got[NodeID(i)] != 1 {
			t.Errorf("node %d received %d messages, want 1", i, got[NodeID(i)])
		}
	}
	if n := ct.Counter().Get("ping"); n != int64(ct.Len()-1) {
		t.Errorf("counter = %d, want %d", n, ct.Len()-1)
	}
}

func TestChannelTransportHandlersSendMore(t *testing.T) {
	// A handler that relays must have its sends drained by Settle too.
	g := testGraph(t, 16, 2)
	ct := NewChannelTransport(g, 2, ChannelConfig{})
	defer ct.Close()

	var mu sync.Mutex
	reached := 0
	ct.SetHandler(1, func(msg *Message) {
		ct.SendNew("relay", 1, 2, 0, nil)
	})
	ct.SetHandler(2, func(msg *Message) {
		mu.Lock()
		reached++
		mu.Unlock()
	})
	ct.SendNew("start", 0, 1, 0, nil)
	ct.Settle()

	mu.Lock()
	defer mu.Unlock()
	if reached != 1 {
		t.Fatalf("relayed message not delivered before Settle returned (reached=%d)", reached)
	}
}

func TestChannelTransportOfflineDrop(t *testing.T) {
	g := testGraph(t, 16, 3)
	ct := NewChannelTransport(g, 3, ChannelConfig{})
	defer ct.Close()

	var mu sync.Mutex
	var dropped []NodeID
	ct.SetDrop(func(msg *Message) {
		mu.Lock()
		dropped = append(dropped, msg.To)
		mu.Unlock()
	})
	ct.SetHandler(5, func(msg *Message) { t.Error("offline node got a message") })
	ct.SetOnline(5, false)
	ct.SendNew("push", 0, 5, 0, nil)
	ct.Settle()

	mu.Lock()
	defer mu.Unlock()
	if len(dropped) != 1 || dropped[0] != 5 {
		t.Fatalf("dropped = %v, want [5]", dropped)
	}
	if ct.Counter().Get("push") != 1 {
		t.Error("dropped message must still be counted as sent")
	}
	if ct.OnlineCount() != ct.Len()-1 {
		t.Errorf("online count = %d, want %d", ct.OnlineCount(), ct.Len()-1)
	}
}

func TestChannelTransportLoss(t *testing.T) {
	g := testGraph(t, 8, 4)
	ct := NewChannelTransport(g, 4, ChannelConfig{LossRate: 1.0})
	defer ct.Close()

	delivered, droppedCb := 0, 0
	ct.SetHandler(1, func(msg *Message) { delivered++ })
	ct.SetDrop(func(msg *Message) { droppedCb++ })
	for i := 0; i < 50; i++ {
		ct.SendNew("lossy", 0, 1, 0, nil)
	}
	ct.Settle()
	if delivered != 0 {
		t.Errorf("delivered %d messages at 100%% loss", delivered)
	}
	if droppedCb != 0 {
		t.Errorf("packet loss must be silent, drop callback fired %d times", droppedCb)
	}
	if ct.Counter().Get("lossy") != 50 {
		t.Errorf("lost messages must be counted as sent, got %d", ct.Counter().Get("lossy"))
	}
}

// TestTransportParity pins both transports to identical traversal
// semantics: floods and selective walks are deterministic given the same
// graph and online state, so reach sets and message charges must match.
func TestTransportParity(t *testing.T) {
	g := testGraph(t, 200, 5)
	net := NewNetwork(sim.New(), g, 5)
	ct := NewChannelTransport(g, 5, ChannelConfig{})
	defer ct.Close()

	for _, tr := range []Transport{net, ct} {
		tr.SetOnline(7, false)
		tr.SetOnline(13, false)
	}

	fn := net.Flood("f", 0, 3, nil, nil)
	fc := ct.Flood("f", 0, 3, nil, nil)
	if len(fn) != len(fc) {
		t.Fatalf("flood reach: network %d, channel %d", len(fn), len(fc))
	}
	for id := range fn {
		if !fc[id] {
			t.Fatalf("flood reach sets differ at node %d", id)
		}
	}
	if a, b := net.Counter().Get("f"), ct.Counter().Get("f"); a != b {
		t.Errorf("flood charge: network %d, channel %d", a, b)
	}

	accept := func(id NodeID) bool { return id == 150 }
	wn := net.SelectiveWalk("w", 3, 400, accept)
	wc := ct.SelectiveWalk("w", 3, 400, accept)
	if wn.Found != wc.Found || wn.Messages != wc.Messages {
		t.Errorf("selective walk: network (%d, %d msgs), channel (%d, %d msgs)",
			wn.Found, wn.Messages, wc.Found, wc.Messages)
	}
	if len(wn.Path) != len(wc.Path) {
		t.Errorf("walk paths differ: %d vs %d nodes", len(wn.Path), len(wc.Path))
	}

	for a := NodeID(0); a < 200; a += 17 {
		within := net.HopsWithin(a, 4)
		for b := NodeID(0); b < 200; b += 7 {
			want, ok := within[b]
			if !ok {
				want = -1
			}
			if dn, dc := net.HopsBetween(a, b, 4), ct.HopsBetween(a, b, 4); dn != want || dc != want {
				t.Errorf("HopsBetween(%d, %d, 4): network %d, channel %d, HopsWithin %d", a, b, dn, dc, want)
			}
		}
	}
}

func TestChannelTransportCloseDrains(t *testing.T) {
	g := testGraph(t, 16, 6)
	ct := NewChannelTransport(g, 6, DefaultChannelConfig())
	var mu sync.Mutex
	n := 0
	ct.SetHandler(1, func(msg *Message) { mu.Lock(); n++; mu.Unlock() })
	for i := 0; i < 10; i++ {
		ct.SendNew("x", 0, 1, 0, nil)
	}
	ct.Close()
	ct.Close() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if n != 10 {
		t.Fatalf("Close drained %d/10 messages", n)
	}
}
