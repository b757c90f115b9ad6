package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Sharded is the parallel event kernel: the node set is partitioned into
// regions, each region owns a sequential Engine (heap + clock), and the
// kernel advances every region in barrier-separated time windows inside
// which regions cannot affect each other.
//
// The window bound comes in two flavors (SetWindowMode):
//
//   - WindowFixed (PR 7): every window spans [min, min+lookahead), the
//     global conservative bound — lookahead is the minimum latency of any
//     cross-region link, so an event executing at t >= windowStart that
//     sends across regions delivers at t+lat >= windowEnd.
//   - WindowDynamic: at each barrier every region publishes an
//     earliest-output-time bound EOT(s) = nextAt(s) + outBound(s) (its
//     next pending event time plus the minimum latency of any link
//     leaving its partition). Region r's window then ends at its
//     earliest-input-time EIT(r) = min over s != r of
//     nextAt(s) + max(outBound(s), inBound(r)) — so a region whose
//     latency-close neighbors are quiet strides far past the static
//     lookahead with zero rollback machinery.
//
// Speculate layers overrun on either mode: a region that exhausts its
// committed window keeps executing while it can prove, from the other
// regions' live frontier promises and its own staged-arrival minimum,
// that no cross-region event can land below its clock (see spec.go).
//
// Cross-region handoff: Schedule routes same-region events straight onto
// the owner's heap (only the owning worker, or the idle driver, touches
// it) and stages cross-region events in the destination's mutex-guarded
// inbox. At each window barrier the coordinator drains every inbox,
// stable-sorts the staged entries by (time, source region) and pushes
// them onto the target heap in that order — deterministic regardless of
// which worker finished first, so runs are reproducible bit-for-bit.
type Sharded struct {
	regions   []*Engine
	inboxes   []regionInbox
	partition []int32
	lookahead Time
	// outBound/inBound are the per-region minimum latencies of links
	// leaving/entering each region's partition (default: lookahead).
	outBound []Time
	inBound  []Time
	mode     WindowMode
	spec     bool // overrun enabled (see Speculate)
	started  bool
	running  bool // inside run(): staging comes from worker context
	staged   atomic.Int64
	runs     []regionRun
	// Coordinator scratch, reused across windows: the barrier allocates
	// nothing in steady state (BenchmarkWindowBarrier gates allocs at 0).
	eot      []Time
	ends     []Time
	act      []int
	runLimit Time
	workers  bool
	wg       sync.WaitGroup
	sorter   stagedSorter
	stats    ShardedStats
}

// stagedSorter orders one inbox's drained entries by (time, source
// region). It lives on the Sharded struct so the sort.Stable interface
// conversion reuses one allocation for the life of the kernel — the
// window barrier is a 0 allocs/op path (BenchmarkWindowBarrier).
type stagedSorter struct{ entries []stagedEvent }

func (d *stagedSorter) Len() int { return len(d.entries) }
func (d *stagedSorter) Less(i, j int) bool {
	if d.entries[i].at != d.entries[j].at {
		return d.entries[i].at < d.entries[j].at
	}
	return d.entries[i].src < d.entries[j].src
}
func (d *stagedSorter) Swap(i, j int) {
	d.entries[i], d.entries[j] = d.entries[j], d.entries[i]
}

// regionRun is one region's worker channel plus overrun state. The
// frontier, echo and specCommitted fields are written by the owning
// worker during a window (coordinator between windows).
type regionRun struct {
	// frontier is the region's earliest-output promise as float64 bits:
	// nothing it emits from here on arrives anywhere below this time.
	frontier atomic.Uint64
	// echo is the region's self-echo cap as float64 bits (+Inf when it
	// staged nothing this window): the minimum over its own in-window
	// cross-region sends of arrival + outBound(target) — the earliest a
	// cascade of its own output can re-enter any region. Overrun stops
	// below it: the frontier/inbox proof covers everyone else's output,
	// but a region's own sends land in inboxes it has already read, so a
	// stale bound would let it outrun its own echo.
	echo atomic.Uint64
	work chan Time
	// specCommitted counts frontier-proven events run past the window.
	specCommitted uint64
}

// stagedEvent is one cross-region handoff awaiting the window barrier.
type stagedEvent struct {
	at    Time
	src   int32 // sending region: part of the deterministic drain order
	inRun bool  // staged from worker context (causality accounting applies)
	fn    func()
}

type regionInbox struct {
	mu      sync.Mutex
	entries []stagedEvent
	spare   []stagedEvent // swap buffer: drain allocates nothing
	// minBits mirrors the minimum staged arrival time (float64 bits,
	// +Inf when empty) for lock-free overrun bound checks.
	minBits atomic.Uint64
}

var infBits = math.Float64bits(math.Inf(1))

// DefaultLookahead is the window width before SetPartition provides the
// real minimum cross-region latency. With the initial single-region
// partition no event ever crosses regions, so any positive value is
// conservative.
const DefaultLookahead Time = 0.1

// NewSharded creates a parallel kernel for nodes 0..nodes-1 split into
// the given number of regions. All nodes start in region 0; call
// SetPartition before scheduling to spread them.
func NewSharded(nodes, regions int) (*Sharded, error) {
	if regions < 1 {
		return nil, fmt.Errorf("sim: region count %d < 1", regions)
	}
	if nodes < 0 {
		return nil, fmt.Errorf("sim: negative node count %d", nodes)
	}
	s := &Sharded{
		regions:   make([]*Engine, regions),
		inboxes:   make([]regionInbox, regions),
		partition: make([]int32, nodes),
		lookahead: DefaultLookahead,
		outBound:  make([]Time, regions),
		inBound:   make([]Time, regions),
		runs:      make([]regionRun, regions),
		eot:       make([]Time, regions),
		ends:      make([]Time, regions),
		act:       make([]int, 0, regions),
	}
	for i := range s.regions {
		e := New()
		e.nowBits = new(atomic.Uint64)
		s.regions[i] = e
		s.outBound[i] = DefaultLookahead
		s.inBound[i] = DefaultLookahead
		s.inboxes[i].minBits.Store(infBits)
		s.runs[i].work = make(chan Time, 1)
	}
	return s, nil
}

// Regions returns the region count.
func (s *Sharded) Regions() int { return len(s.regions) }

// RegionOf returns the region owning a node.
func (s *Sharded) RegionOf(node int) int { return int(s.partition[node]) }

// Lookahead returns the fixed-mode window width.
func (s *Sharded) Lookahead() Time { return s.lookahead }

// SetPartition installs a node→region mapping and the lookahead bound
// (the minimum cross-region link latency), which also becomes the
// default per-region in/out bound until SetBounds tightens it. It must
// be called before any event is scheduled: events already routed under
// the old mapping would sit on the wrong heaps.
func (s *Sharded) SetPartition(part []int, lookahead Time) error {
	if len(part) != len(s.partition) {
		return fmt.Errorf("sim: partition covers %d nodes, kernel has %d", len(part), len(s.partition))
	}
	if lookahead <= 0 {
		return errors.New("sim: lookahead must be positive")
	}
	if s.started || s.Pending() > 0 {
		return errors.New("sim: cannot repartition after events were scheduled")
	}
	for i, r := range part {
		if r < 0 || r >= len(s.regions) {
			return fmt.Errorf("sim: node %d mapped to region %d of %d", i, r, len(s.regions))
		}
		s.partition[i] = int32(r)
	}
	s.lookahead = lookahead
	for i := range s.outBound {
		s.outBound[i] = lookahead
		s.inBound[i] = lookahead
		s.regions[i].outBound = lookahead
	}
	return nil
}

// RegionNow returns a region's clock. Safe from any goroutine (atomic
// read), including cross-region reads while a window is executing.
func (s *Sharded) RegionNow(r int) Time {
	return Time(math.Float64frombits(s.regions[r].nowBits.Load()))
}

// Now returns the most advanced region clock — after Run/RunUntil all
// regions agree and this matches the sequential engine's Now.
func (s *Sharded) Now() Time {
	var m Time
	for r := range s.regions {
		if t := s.RegionNow(r); t > m {
			m = t
		}
	}
	return m
}

// Executed returns the total events processed across regions.
func (s *Sharded) Executed() uint64 {
	var n uint64
	for _, e := range s.regions {
		n += e.events
	}
	return n
}

// Pending returns the scheduled, not-yet-fired events across all region
// heaps plus staged cross-region handoffs.
func (s *Sharded) Pending() int {
	n := int(s.staged.Load())
	for _, e := range s.regions {
		n += len(e.pending)
	}
	return n
}

// Schedule routes an event owned by node dst, originating at node src,
// to dst's region at absolute time at. Same-region events go straight
// onto the owner's heap and return a handle usable with Cancel;
// cross-region events are staged for the next window barrier and return
// 0 (they cannot be cancelled).
//
// Callers must hold the conservative-execution contract: Schedule is
// invoked either from an event executing in src's region worker, or from
// the driver goroutine while no window is running.
func (s *Sharded) Schedule(src, dst int, at Time, fn func()) uint64 {
	rs, rd := s.partition[src], s.partition[dst]
	if rs == rd {
		e := s.regions[rd]
		if at < e.now {
			at = e.now
		}
		return e.At(at, fn)
	}
	ib := &s.inboxes[rd]
	ib.mu.Lock()
	ib.entries = append(ib.entries, stagedEvent{at: at, src: rs, inRun: s.running, fn: fn})
	if at < Time(math.Float64frombits(ib.minBits.Load())) {
		ib.minBits.Store(math.Float64bits(float64(at)))
	}
	ib.mu.Unlock()
	s.staged.Add(1)
	if s.spec && s.running {
		// Tighten the sender's self-echo cap: this send's cascade can
		// re-enter a region no earlier than its arrival plus the
		// target's cheapest outgoing link. Atomic min — the write is
		// normally the sending worker's own, but the protocol stack's
		// contract-bending paths may stage on behalf of a remote region.
		echo := math.Float64bits(float64(at + s.outBound[rd]))
		em := &s.runs[rs].echo
		for {
			old := em.Load()
			if math.Float64frombits(old) <= math.Float64frombits(echo) ||
				em.CompareAndSwap(old, echo) {
				break
			}
		}
	}
	return 0
}

// Cancel drops a same-region event by the handle Schedule returned.
// Like Schedule, it may only be called from the owning region's worker
// or from the idle driver.
func (s *Sharded) Cancel(region int, id uint64) {
	s.regions[region].Cancel(id)
}

// drainInboxes moves staged cross-region events onto their target heaps
// in deterministic (time, source region) order. Runs on the coordinator
// between windows, when all workers are idle. An in-run staged entry
// landing below its target's committed clock is a causality violation
// (the conservative contract was broken by the caller); it is clamped
// like a driver-context past schedule and counted in Stats.
func (s *Sharded) drainInboxes() {
	for d := range s.inboxes {
		ib := &s.inboxes[d]
		ib.mu.Lock()
		entries := ib.entries
		ib.entries = ib.spare[:0]
		ib.spare = entries
		ib.minBits.Store(infBits)
		ib.mu.Unlock()
		if len(entries) == 0 {
			continue
		}
		s.sorter.entries = entries
		sort.Stable(&s.sorter)
		s.sorter.entries = nil
		e := s.regions[d]
		for i := range entries {
			at := entries[i].at
			if at < e.now {
				if entries[i].inRun {
					s.stats.CausalityViolations++
				}
				at = e.now
			}
			e.At(at, entries[i].fn)
			entries[i].fn = nil
		}
		s.staged.Add(int64(-len(entries)))
	}
}

// minNext returns the earliest live event time across regions.
func (s *Sharded) minNext() (Time, bool) {
	var m Time
	ok := false
	for _, e := range s.regions {
		if t, live := e.nextAt(); live && (!ok || t < m) {
			m, ok = t, true
		}
	}
	return m, ok
}

// run is the coordinator loop: drain inboxes, plan the next window from
// the earliest event time, execute it across the participating regions,
// repeat. The window start always snaps to the earliest pending event, so
// idle stretches cost no empty windows.
func (s *Sharded) run(horizon Time) {
	s.started = true
	s.running = true
	// limit is the exclusive window bound that still admits events at
	// exactly the horizon, matching the sequential RunUntil contract
	// (execute events with at <= horizon).
	s.runLimit = Time(math.Nextafter(float64(horizon), math.Inf(1)))
	s.drainInboxes()
	for {
		min, ok := s.minNext()
		if !ok || min > horizon {
			break
		}
		s.planWindow(min)
		s.window()
		s.drainInboxes()
	}
	s.stopWorkers()
	s.running = false
	// Equalize the clocks at the global frontier so driver-context
	// scheduling after the run bases its delays on the same time a
	// sequential engine would report.
	m := s.Now()
	for _, e := range s.regions {
		e.advanceTo(m)
	}
}

// Run executes every scheduled event to exhaustion, like Engine.Run.
func (s *Sharded) Run() { s.run(End) }

// RunUntil executes events up to and including the horizon, then
// advances every region clock to it, like Engine.RunUntil.
func (s *Sharded) RunUntil(horizon Time) {
	s.run(horizon)
	for _, e := range s.regions {
		e.advanceTo(horizon)
	}
}
