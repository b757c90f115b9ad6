package sim

import (
	"math"
	"sort"
	"sync"
	"testing"
)

// shardedFor builds the standard 32-node / 8-virtual-domain kernel the
// equivalence program runs on, with the given window mode and overrun
// configuration.
func shardedFor(t testing.TB, regions int, lookahead Time, mode WindowMode, spec bool) *Sharded {
	t.Helper()
	s, err := NewSharded(32, regions)
	if err != nil {
		t.Fatal(err)
	}
	part := make([]int, 32)
	for i := range part {
		part[i] = (i % 8) % regions
	}
	if err := s.SetPartition(part, lookahead); err != nil {
		t.Fatal(err)
	}
	s.SetWindowMode(mode)
	if spec {
		s.Speculate()
	}
	return s
}

// TestShardedDynamicMatchesSequential: dynamic windows are still
// conservative — bit-identical to the sequential engine at every region
// count — while striding past the fixed bound (fewer barriers).
func TestShardedDynamicMatchesSequential(t *testing.T) {
	const lookahead = Time(0.05)
	want := runProgram(seqKernel{New()}, lookahead)
	for _, regions := range []int{1, 2, 4, 8} {
		s := shardedFor(t, regions, lookahead, WindowDynamic, false)
		got := runProgram(s, lookahead)
		if len(got) != len(want) {
			t.Fatalf("regions=%d: %d events, sequential had %d", regions, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("regions=%d: event %d = %+v, sequential %+v", regions, i, got[i], want[i])
			}
		}
		st := s.Stats()
		if st.CausalityViolations != 0 {
			t.Fatalf("regions=%d: %d causality violations", regions, st.CausalityViolations)
		}
		if regions > 1 {
			fixed := shardedFor(t, regions, lookahead, WindowFixed, false)
			runProgram(fixed, lookahead)
			if st.Windows >= fixed.Stats().Windows {
				t.Fatalf("regions=%d: dynamic took %d windows, fixed %d — no striding",
					regions, st.Windows, fixed.Stats().Windows)
			}
			if st.DynamicExtensions == 0 {
				t.Fatalf("regions=%d: no dynamic extensions recorded", regions)
			}
		}
	}
}

// TestShardedSpeculativeMatchesSequential: frontier-proven overrun
// commits events past the committed window end yet stays bit-identical
// to the sequential engine, under both window modes.
func TestShardedSpeculativeMatchesSequential(t *testing.T) {
	const lookahead = Time(0.05)
	want := runProgram(seqKernel{New()}, lookahead)
	for _, mode := range []WindowMode{WindowFixed, WindowDynamic} {
		for _, regions := range []int{1, 2, 4, 8} {
			s := shardedFor(t, regions, lookahead, mode, true)
			got := runProgram(s, lookahead)
			if len(got) != len(want) {
				t.Fatalf("mode=%v regions=%d: %d events, sequential had %d", mode, regions, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("mode=%v regions=%d: event %d = %+v, sequential %+v", mode, regions, i, got[i], want[i])
				}
			}
			st := s.Stats()
			if st.CausalityViolations != 0 {
				t.Fatalf("mode=%v regions=%d: %d causality violations", mode, regions, st.CausalityViolations)
			}
			if regions > 1 && st.SpecCommitted == 0 {
				t.Fatalf("mode=%v regions=%d: no event committed past a window end — overrun never ran", mode, regions)
			}
			if s.Executed() != uint64(len(want)) {
				t.Fatalf("mode=%v regions=%d: Executed=%d want %d", mode, regions, s.Executed(), len(want))
			}
		}
	}
}

// fuzzProgram drives a deterministic cascade whose cross-region delays
// respect a per-region latency-bound matrix derived from the seed, then
// compares sharded execution against the sequential engine.
func fuzzProgram(t *testing.T, seed uint64, regions int, mode WindowMode, spec bool) {
	const nodes = 24
	const steps = 60
	base := 0.02 + Time(seed%17)/500 // global min cross latency
	// Per-region out/in bounds: region r's cheapest outgoing link is
	// base+outJit[r], cheapest incoming base+inJit[r]. A send s->d uses
	// delay >= max(out[s], in[d]) so the declared bounds hold.
	out := make([]Time, regions)
	in := make([]Time, regions)
	h := seed
	next := func() uint64 { h ^= h << 13; h ^= h >> 7; h ^= h << 17; return h }
	for r := 0; r < regions; r++ {
		out[r] = base + Time(next()%23)/1000
		in[r] = base + Time(next()%23)/1000
	}
	part := make([]int, nodes)
	for i := range part {
		part[i] = i % regions
	}
	run := func(k kernel) []rec {
		var mu sync.Mutex
		var trace []rec
		var hop func(node, step int, at Time) func()
		hop = func(node, step int, at Time) func() {
			return func() {
				mu.Lock()
				trace = append(trace, rec{at: at, node: node})
				mu.Unlock()
				if step >= steps {
					return
				}
				g := uint64(node+1)*0x9e3779b97f4a7c15 + uint64(step+1)*2654435761 + seed
				g ^= g >> 29
				dst := int(g % nodes)
				var delay Time
				if part[dst] == part[node] {
					delay = 0.0005 + Time(g%31)/20000
				} else {
					min := out[part[node]]
					if in[part[dst]] > min {
						min = in[part[dst]]
					}
					delay = min + Time(g%101)/2000
				}
				k.Schedule(node, dst, at+delay, hop(dst, step+1, at+delay))
			}
		}
		for i := 0; i < nodes; i++ {
			at := 0.003 + Time(i)*0.007
			k.Schedule(i, i, at, hop(i, 0, at))
		}
		k.Run()
		sort.Slice(trace, func(i, j int) bool {
			if trace[i].at != trace[j].at {
				return trace[i].at < trace[j].at
			}
			return trace[i].node < trace[j].node
		})
		return trace
	}
	want := run(seqKernel{New()})
	s, err := NewSharded(nodes, regions)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPartition(part, base); err != nil {
		t.Fatal(err)
	}
	if err := s.SetBounds(out, in); err != nil {
		t.Fatal(err)
	}
	s.SetWindowMode(mode)
	if spec {
		s.Speculate()
	}
	got := run(s)
	if len(got) != len(want) {
		t.Fatalf("seed=%#x regions=%d mode=%v spec=%v: %d events, sequential %d",
			seed, regions, mode, spec, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed=%#x regions=%d mode=%v spec=%v: event %d = %+v, want %+v",
				seed, regions, mode, spec, i, got[i], want[i])
		}
	}
	if v := s.Stats().CausalityViolations; v != 0 {
		t.Fatalf("seed=%#x regions=%d mode=%v spec=%v: %d causality violations",
			seed, regions, mode, spec, v)
	}
}

// FuzzShardedWindows drives random cross-region send schedules through
// the dynamic-window and speculative kernels and asserts the window
// planner never admits a causality violation: execution stays
// bit-identical to the sequential engine.
func FuzzShardedWindows(f *testing.F) {
	for _, seed := range []uint64{1, 0xdeadbeef, 42, 0x9e3779b97f4a7c15} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if seed == 0 {
			seed = 1
		}
		for _, regions := range []int{2, 5} {
			fuzzProgram(t, seed, regions, WindowDynamic, false)
			fuzzProgram(t, seed, regions, WindowDynamic, true)
			fuzzProgram(t, seed, regions, WindowFixed, true)
		}
	})
}

// TestShardedSelfEchoCap pins the overrun hole the regionRun.echo cap
// closes. Region 1 starts with an empty heap and an empty inbox, so
// region 0's first overrun bound proves nothing is coming (frontier and
// staged-arrival minimum are both +Inf) and is read once, stale, for the
// whole overrun. Mid-overrun, region 0 pings region 1; the echo returns
// below region 0's later chain events and — sequentially — flips a flag
// those events observe. A kernel that outruns its own echo executes the
// tail of the chain before the flip and can only clamp the echo; the
// cap must instead stop the overrun at ping-arrival + outBound.
func TestShardedSelfEchoCap(t *testing.T) {
	const la = Time(0.05)
	program := func(k kernel) []rec {
		var mu sync.Mutex
		var trace []rec
		add := func(r rec) {
			mu.Lock()
			trace = append(trace, r)
			mu.Unlock()
		}
		// flag is only touched by region 0's events, which are totally
		// ordered in every kernel mode.
		flag := 0
		for i := 1; i <= 12; i++ {
			at := Time(i)
			k.Schedule(0, 0, at, func() { add(rec{at: at, node: flag}) })
		}
		k.Schedule(0, 0, 3.2, func() {
			k.Schedule(0, 1, 3.2+la, func() {
				add(rec{at: 3.2 + la, node: 10})
				k.Schedule(1, 0, 3.2+2*la, func() {
					flag = 1
					add(rec{at: 3.2 + 2*la, node: 20})
				})
			})
		})
		k.Run()
		sort.Slice(trace, func(i, j int) bool { return trace[i].at < trace[j].at })
		return trace
	}
	want := program(seqKernel{New()})
	for _, mode := range []WindowMode{WindowFixed, WindowDynamic} {
		s, err := NewSharded(2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetPartition([]int{0, 1}, la); err != nil {
			t.Fatal(err)
		}
		s.SetWindowMode(mode)
		s.Speculate()
		got := program(s)
		if len(got) != len(want) {
			t.Fatalf("mode=%v: %d events, sequential %d", mode, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("mode=%v: event %d = %+v, sequential %+v (overran its own echo)",
					mode, i, got[i], want[i])
			}
		}
		if v := s.Stats().CausalityViolations; v != 0 {
			t.Fatalf("mode=%v: %d causality violations", mode, v)
		}
	}
}

// TestShardedBoundsValidation covers SetBounds argument checking.
func TestShardedBoundsValidation(t *testing.T) {
	s, err := NewSharded(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetBounds([]Time{1}, []Time{1, 1}); err == nil {
		t.Fatal("SetBounds accepted mismatched lengths")
	}
	if err := s.SetBounds([]Time{1, 0}, []Time{1, 1}); err == nil {
		t.Fatal("SetBounds accepted a zero bound")
	}
	if err := s.SetBounds([]Time{0.2, 0.3}, []Time{0.25, 0.2}); err != nil {
		t.Fatal(err)
	}
}

// TestParseWindowMode covers the flag spelling round-trip.
func TestParseWindowMode(t *testing.T) {
	for _, m := range []WindowMode{WindowFixed, WindowDynamic} {
		got, err := ParseWindowMode(m.String())
		if err != nil || got != m {
			t.Fatalf("round-trip %v: got %v, err %v", m, got, err)
		}
	}
	if _, err := ParseWindowMode("timewarp"); err == nil {
		t.Fatal("ParseWindowMode accepted garbage")
	}
}

// BenchmarkWindowBarrier measures one full coordinator cycle — inbox
// drain, window plan, inline region execution, barrier bookkeeping — via
// a two-region ping-pong where every hop is its own window. The staging
// slabs and event structs are pooled, so the steady-state barrier must
// not allocate (CI gates allocs/op == 0 via benchgate).
func BenchmarkWindowBarrier(b *testing.B) {
	const lookahead = Time(0.05)
	s, err := NewSharded(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.SetPartition([]int{0, 1}, lookahead); err != nil {
		b.Fatal(err)
	}
	var at Time
	var node int
	var left int
	var hop func()
	hop = func() {
		if left == 0 {
			return
		}
		left--
		src := node
		node = 1 - node
		at += lookahead + 0.01
		s.Schedule(src, node, at, hop)
	}
	warm := func(n int) {
		left = n
		at += 1
		s.Schedule(node, node, at, hop)
		s.Run()
	}
	warm(512)
	if math.IsInf(float64(at), 0) {
		b.Fatal("clock overflow in warmup")
	}
	b.ReportAllocs()
	b.ResetTimer()
	warm(b.N)
}
