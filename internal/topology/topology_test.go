package topology

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	if err := g.AddEdge(0, 1, 0.05); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 0.07); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 || g.EdgeCount() != 2 {
		t.Errorf("shape wrong: n=%d e=%d", g.Len(), g.EdgeCount())
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Error("Degree wrong")
	}
	if g.Latency(0, 1) != 0.05 || g.Latency(1, 0) != 0.05 {
		t.Error("Latency not symmetric")
	}
	if g.Latency(0, 3) != 0 {
		t.Error("absent edge latency nonzero")
	}
	if g.AvgDegree() != 1 {
		t.Errorf("AvgDegree = %g", g.AvgDegree())
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := g.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative accepted")
	}
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0, 1); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	if !g.Connected() {
		t.Error("connected graph reported disconnected")
	}
	if !NewGraph(0).Connected() {
		t.Error("empty graph should be connected")
	}
}

func TestBFSWithin(t *testing.T) {
	// Path 0-1-2-3-4.
	g := NewGraph(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1, 1)
	}
	d := g.BFSWithin(0, 2)
	if len(d) != 3 {
		t.Errorf("BFSWithin(0,2) = %v", d)
	}
	if d[2] != 2 {
		t.Errorf("dist[2] = %d", d[2])
	}
	if _, ok := d[3]; ok {
		t.Error("node 3 reached within 2 hops")
	}
	d0 := g.BFSWithin(4, 0)
	if len(d0) != 1 || d0[4] != 0 {
		t.Errorf("BFSWithin(4,0) = %v", d0)
	}
}

func TestBarabasiAlbertProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := BarabasiAlbert(2000, 2, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Error("BA graph not connected")
	}
	// Average degree ~ 2m = 4 (slightly above due to the seed clique).
	if d := g.AvgDegree(); d < 3.5 || d > 4.5 {
		t.Errorf("avg degree = %g, want ~4", d)
	}
	// Heavy tail: the hubs should be far above the mean.
	if g.MaxDegree() < 20 {
		t.Errorf("max degree = %d; no hubs in a BA graph?", g.MaxDegree())
	}
	// Power-law exponent near 3.
	if gamma := g.PowerLawExponentEstimate(4); gamma < 2 || gamma > 4.5 {
		t.Errorf("estimated exponent = %g, want ~3", gamma)
	}
	// Latencies drawn from the default model are in [10ms, 200ms].
	for u := 0; u < g.Len(); u++ {
		for _, v := range g.Neighbors(u) {
			if l := g.Latency(u, v); l < 0.010 || l > 0.200 {
				t.Fatalf("latency %g out of default range", l)
			}
		}
	}
}

func TestBarabasiAlbertErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := BarabasiAlbert(3, 0, nil, rng); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := BarabasiAlbert(2, 2, nil, rng); err == nil {
		t.Error("n<m+1 accepted")
	}
}

func TestBarabasiAlbertDeterminism(t *testing.T) {
	a, err := BarabasiAlbert(300, 2, nil, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BarabasiAlbert(300, 2, nil, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 300; u++ {
		if len(a.Neighbors(u)) != len(b.Neighbors(u)) {
			t.Fatalf("node %d degree differs across same-seed runs", u)
		}
	}
}

func TestWaxman(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := Waxman(400, 0.2, 0.15, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Error("waxman graph not connected (spanning pass failed)")
	}
	if g.AvgDegree() < 1 {
		t.Errorf("waxman avg degree = %g, suspiciously sparse", g.AvgDegree())
	}
	if _, err := Waxman(1, 0.2, 0.15, nil, rng); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Waxman(10, 0, 0.15, nil, rng); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := Waxman(10, 0.5, -1, nil, rng); err == nil {
		t.Error("beta<0 accepted")
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Triangle: clustering 1.
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	if c := g.ClusteringCoefficient(); c != 1 {
		t.Errorf("triangle clustering = %g", c)
	}
	// Star: clustering 0.
	s := NewGraph(4)
	s.AddEdge(0, 1, 1)
	s.AddEdge(0, 2, 1)
	s.AddEdge(0, 3, 1)
	if c := s.ClusteringCoefficient(); c != 0 {
		t.Errorf("star clustering = %g", c)
	}
	if c := NewGraph(2).ClusteringCoefficient(); c != 0 {
		t.Errorf("edgeless clustering = %g", c)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	h := g.DegreeHistogram()
	if h[0] != 1 || h[1] != 2 {
		t.Errorf("histogram = %v", h)
	}
}

func TestUniformLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := UniformLatency(1, 2)
	for i := 0; i < 100; i++ {
		if l := m(rng); l < 1 || l > 2 {
			t.Fatalf("latency %g out of [1,2]", l)
		}
	}
}

// Property: BA graphs of any admissible size are connected with average
// degree close to 2m.
func TestQuickBAConnected(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 10
		g, err := BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		return g.Connected() && g.AvgDegree() >= 3 && g.AvgDegree() <= 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: every edge is symmetric in the adjacency lists.
func TestQuickEdgeSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		g, err := BarabasiAlbert(200, 3, nil, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		for u := 0; u < g.Len(); u++ {
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestWattsStrogatz(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, err := WattsStrogatz(500, 4, 0.1, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Error("WS graph not connected")
	}
	if d := g.AvgDegree(); d < 3.5 || d > 4.5 {
		t.Errorf("avg degree = %g, want ~4", d)
	}
	// Small-world: much higher clustering than a BA graph of same size,
	// with comparable path lengths.
	ba, err := BarabasiAlbert(500, 2, nil, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if g.ClusteringCoefficient() <= ba.ClusteringCoefficient() {
		t.Errorf("WS clustering (%g) not above BA (%g)",
			g.ClusteringCoefficient(), ba.ClusteringCoefficient())
	}
	if apl := g.AvgPathLengthSample(10, rng); apl <= 1 || apl > 20 {
		t.Errorf("WS avg path length = %g, not small-world", apl)
	}
}

func TestWattsStrogatzErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := WattsStrogatz(10, 3, 0.1, nil, rng); err == nil {
		t.Error("odd k accepted")
	}
	if _, err := WattsStrogatz(4, 4, 0.1, nil, rng); err == nil {
		t.Error("n <= k accepted")
	}
	if _, err := WattsStrogatz(10, 4, 1.5, nil, rng); err == nil {
		t.Error("beta > 1 accepted")
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	// beta = 0: the pure ring lattice, fully regular.
	g, err := WattsStrogatz(20, 4, 0, nil, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("lattice degree(%d) = %d, want 4", u, g.Degree(u))
		}
	}
	// Lattice clustering for k=4 is exactly 0.5.
	if c := g.ClusteringCoefficient(); c < 0.45 || c > 0.55 {
		t.Errorf("lattice clustering = %g, want 0.5", c)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	g.removeEdge(0, 1)
	if g.HasEdge(0, 1) || g.EdgeCount() != 0 {
		t.Error("removeEdge failed")
	}
	g.removeEdge(0, 1) // absent: no-op
	if g.EdgeCount() != 0 {
		t.Error("double remove corrupted graph")
	}
}

func TestAvgPathLengthEdgeCases(t *testing.T) {
	if NewGraph(1).AvgPathLengthSample(3, rand.New(rand.NewSource(1))) != 0 {
		t.Error("single node path length nonzero")
	}
}

func TestNearestSeeds(t *testing.T) {
	// Path 0-1-2-3-4-5 with seeds at 0 and 5: nodes split at the middle,
	// the equidistant node 2 (2 hops from 0, 3 from 5)... build explicitly.
	g := NewGraph(6)
	for u := 0; u < 5; u++ {
		if err := g.AddEdge(u, u+1, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	got := NearestSeeds(g, []int{0, 5})
	want := []int{0, 0, 0, 1, 1, 1}
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("node %d: owner %d, want %d (full %v)", v, got[v], want[v], got)
		}
	}

	// Equidistant ties break on the lower seed index: node 2 on a path of
	// 5 is 2 hops from both seeds.
	g5 := NewGraph(5)
	for u := 0; u < 4; u++ {
		if err := g5.AddEdge(u, u+1, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	if got := NearestSeeds(g5, []int{4, 0}); got[2] != 0 {
		// seeds[0]=4, seeds[1]=0: node 2 is 2 hops from each; index 0 wins.
		t.Errorf("tie broke to seed index %d, want 0 (full %v)", got[2], got)
	}

	// Unreachable nodes report -1.
	g2 := NewGraph(4)
	if err := g2.AddEdge(0, 1, 0.01); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddEdge(2, 3, 0.01); err != nil {
		t.Fatal(err)
	}
	got = NearestSeeds(g2, []int{0})
	if got[0] != 0 || got[1] != 0 || got[2] != -1 || got[3] != -1 {
		t.Errorf("disconnected ownership = %v", got)
	}
}

func TestDisjointStars(t *testing.T) {
	g, hubs := DisjointStars(3, 5, 0.02)
	if g.Len() != 15 || len(hubs) != 3 {
		t.Fatalf("got %d nodes, %d hubs", g.Len(), len(hubs))
	}
	if g.Connected() {
		t.Error("DisjointStars must not be connected across clusters")
	}
	for c, hub := range hubs {
		if g.Degree(hub) != 4 {
			t.Errorf("hub %d degree = %d, want 4", hub, g.Degree(hub))
		}
		for s := 1; s < 5; s++ {
			v := c*5 + s
			if g.Degree(v) != 1 || !g.HasEdge(hub, v) {
				t.Errorf("spoke %d not a leaf of hub %d", v, hub)
			}
		}
	}
	// Each cluster owns exactly its own nodes under NearestSeeds.
	owners := NearestSeeds(g, hubs)
	for v := 0; v < g.Len(); v++ {
		if owners[v] != v/5 {
			t.Errorf("node %d owned by %d, want %d", v, owners[v], v/5)
		}
	}
}

func TestRegionLatencyBounds(t *testing.T) {
	// Three regions: 0 <-> 1 linked both cheap and dear, region 2 has a
	// single outbound crossing, region 3 fully isolated.
	g := NewGraph(8)
	part := []int{0, 0, 1, 1, 2, 2, 3, 3}
	mustEdge := func(u, v int, l float64) {
		t.Helper()
		if err := g.AddEdge(u, v, l); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge(0, 1, 0.010) // intra region 0: must not count
	mustEdge(0, 2, 0.050) // region 0 <-> 1
	mustEdge(1, 3, 0.020) // region 0 <-> 1, cheaper
	mustEdge(4, 2, 0.080) // region 2 <-> 1
	mustEdge(4, 5, 0.001) // intra region 2
	mustEdge(6, 7, 0.003) // intra region 3 (isolated from the rest)
	g.Compact()
	out, in := RegionLatencyBounds(g, part, 4)
	wantOut := []float64{0.020, 0.020, 0.080, math.Inf(1)}
	wantIn := []float64{0.020, 0.020, 0.080, math.Inf(1)}
	for r := range wantOut {
		if out[r] != wantOut[r] {
			t.Errorf("out[%d] = %v, want %v", r, out[r], wantOut[r])
		}
		if in[r] != wantIn[r] {
			t.Errorf("in[%d] = %v, want %v", r, in[r], wantIn[r])
		}
	}
}

func TestRegionLatencyBoundsAsymmetric(t *testing.T) {
	// With only one crossing, both its endpoint regions see it and
	// uninvolved regions stay unbounded.
	g := NewGraph(4)
	part := []int{0, 1, 2, 2}
	if err := g.AddEdge(0, 1, 0.042); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3, 0.005); err != nil {
		t.Fatal(err)
	}
	out, in := RegionLatencyBounds(g, part, 3)
	if out[0] != 0.042 || in[0] != 0.042 || out[1] != 0.042 || in[1] != 0.042 {
		t.Errorf("regions 0/1 bounds = out %v in %v, want 0.042 everywhere", out[:2], in[:2])
	}
	if !math.IsInf(out[2], 1) || !math.IsInf(in[2], 1) {
		t.Errorf("isolated region bounds = out %v in %v, want +Inf", out[2], in[2])
	}
}

// hopsOracle is HopsBetween's reference answer: BFSWithin's distance, or
// -1 when b lies outside the radius.
func hopsOracle(g *Graph, a, b, radius int) int {
	if d, ok := g.BFSWithin(a, radius)[b]; ok {
		return d
	}
	return -1
}

func TestHopsBetweenMatchesBFSWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ba, err := BarabasiAlbert(400, 2, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	wax, err := Waxman(150, 0.2, 0.15, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	stars, _ := DisjointStars(4, 6, 0.05)
	// A path graph that never went through Compact: per-node runs still
	// carry their append slack.
	path := NewGraph(12)
	for i := 0; i+1 < path.Len(); i++ {
		if err := path.AddEdge(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	graphs := map[string]*Graph{"ba": ba, "waxman": wax, "stars": stars, "uncompacted-path": path}
	for name, g := range graphs {
		var pairs [][2]int
		for i := 0; i < 60; i++ {
			pairs = append(pairs, [2]int{rng.Intn(g.Len()), rng.Intn(g.Len())})
		}
		for _, a := range []int{0, g.Len() - 1, rng.Intn(g.Len())} {
			pairs = append(pairs, [2]int{a, a})
			for _, v := range g.Neighbors(a) {
				pairs = append(pairs, [2]int{a, v})
			}
		}
		for _, p := range pairs {
			for radius := 0; radius <= 7; radius++ {
				if got, want := g.HopsBetween(p[0], p[1], radius), hopsOracle(g, p[0], p[1], radius); got != want {
					t.Fatalf("%s: HopsBetween(%d, %d, %d) = %d, BFSWithin says %d", name, p[0], p[1], radius, got, want)
				}
			}
		}
	}
	// Cross-star pairs are disconnected at any radius.
	if d := stars.HopsBetween(1, 7, stars.Len()); d != -1 {
		t.Errorf("disconnected pair: HopsBetween = %d, want -1", d)
	}
	if d := path.HopsBetween(0, 11, 11); d != 11 {
		t.Errorf("path ends: HopsBetween = %d, want 11", d)
	}
}

// TestHopsBetweenConcurrent shares one graph among goroutines so the race
// detector covers the pooled working state.
func TestHopsBetweenConcurrent(t *testing.T) {
	g, err := BarabasiAlbert(2000, 2, nil, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	const workers, queries = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < queries; i++ {
				a, b, r := rng.Intn(g.Len()), rng.Intn(g.Len()), rng.Intn(8)
				if got, want := g.HopsBetween(a, b, r), hopsOracle(g, a, b, r); got != want {
					t.Errorf("HopsBetween(%d, %d, %d) = %d, want %d", a, b, r, got, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// BenchmarkHopsBetween is the construction-path gate: one radius-6
// distance query between random peers of a 100k-node power-law overlay,
// the call every joining peer makes. It must not allocate.
func BenchmarkHopsBetween(b *testing.B) {
	g, err := BarabasiAlbert(100000, 2, nil, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(g.Len()), rng.Intn(g.Len())}
	}
	g.HopsBetween(0, 1, 6) // size the pooled state outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		hopsSink += g.HopsBetween(p[0], p[1], 6)
	}
}

var hopsSink int
