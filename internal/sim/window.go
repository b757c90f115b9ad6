package sim

import (
	"fmt"
	"math"
)

// WindowMode selects how the coordinator bounds each execution window.
type WindowMode int

const (
	// WindowFixed is the PR 7 conservative bound: every window spans
	// [min, min+lookahead) where lookahead is the global minimum
	// cross-region link latency.
	WindowFixed WindowMode = iota
	// WindowDynamic derives per-region window ends from the other
	// regions' earliest-output-time bounds at each barrier: first solve
	// the fixpoint EST(s) = min(nextAt(s), min over q != s of EST(q) +
	// max(outBound(q), inBound(s))) — the earliest any region could
	// possibly execute an event, including regions with empty heaps woken
	// transitively by someone else's output (the "echo" path a naive
	// per-heap bound misses) — then let region r run until EIT(r) = min
	// over s != r of EST(s) + max(outBound(s), inBound(r)). Still
	// conservative — no rollback — but quiet or latency-distant senders
	// no longer throttle everyone to the global minimum latency.
	WindowDynamic
)

// String names the mode as the CLI/experiment flags spell it.
func (m WindowMode) String() string {
	switch m {
	case WindowFixed:
		return "fixed"
	case WindowDynamic:
		return "dynamic"
	}
	return fmt.Sprintf("WindowMode(%d)", int(m))
}

// ParseWindowMode parses "fixed" or "dynamic".
func ParseWindowMode(s string) (WindowMode, error) {
	switch s {
	case "fixed":
		return WindowFixed, nil
	case "dynamic":
		return WindowDynamic, nil
	}
	return 0, fmt.Errorf("sim: unknown window mode %q (want fixed or dynamic)", s)
}

// SetWindowMode selects the window-bound scheme. Driver context only
// (not concurrently with Run/RunUntil); takes effect at the next window.
func (s *Sharded) SetWindowMode(m WindowMode) { s.mode = m }

// WindowMode returns the active window-bound scheme.
func (s *Sharded) WindowMode() WindowMode { return s.mode }

// SetBounds installs per-region minimum cross-region link latencies: out[r]
// is the cheapest link leaving region r's partition, in[r] the cheapest
// entering it (both at least the global lookahead by construction, so
// SetPartition's defaults are the safe floor). Dynamic windows and
// speculative overrun use them to bound how early a region's next
// emission can land elsewhere. Driver context only.
func (s *Sharded) SetBounds(out, in []Time) error {
	if len(out) != len(s.regions) || len(in) != len(s.regions) {
		return fmt.Errorf("sim: bounds cover %d/%d regions, kernel has %d", len(out), len(in), len(s.regions))
	}
	for r := range out {
		if out[r] <= 0 || in[r] <= 0 {
			return fmt.Errorf("sim: region %d bounds (out %v, in %v) must be positive", r, out[r], in[r])
		}
	}
	copy(s.outBound, out)
	copy(s.inBound, in)
	for r, e := range s.regions {
		e.outBound = s.outBound[r]
	}
	return nil
}

// ShardedStats counts what the parallel kernel did across Run/RunUntil
// calls. Read it from driver context via Stats().
type ShardedStats struct {
	// Windows is the number of barrier-separated execution windows.
	Windows uint64
	// DynamicExtensions counts windows where the dynamic planner let at
	// least one participating region run past the fixed min+lookahead
	// bound it would have had under WindowFixed.
	DynamicExtensions uint64
	// SpecCommitted is the number of frontier-proven events executed
	// past a region's committed window end.
	SpecCommitted uint64
	// CausalityViolations counts in-run cross-region handoffs that
	// arrived below their target's committed clock and were clamped to
	// it. Zero under the pure kernel contract (every send based on the
	// sending region's own clock plus at least the crossing bound — the
	// sim tests assert it); the protocol stack's documented
	// contract-bending paths (drop callbacks sending on behalf of a
	// remote region, reading that region's clock mirror mid-window)
	// produce a few, absorbed by the same clamp the sequential engine
	// applies to past schedules.
	CausalityViolations uint64
}

// Stats returns the kernel counters. Driver context only: worker-owned
// per-region counters are folded in without synchronization.
func (s *Sharded) Stats() ShardedStats {
	st := s.stats
	for r := range s.runs {
		st.SpecCommitted += s.runs[r].specCommitted
	}
	return st
}

// planWindow computes this window's per-region end bounds and the
// participant set from the global minimum event time. It also publishes
// every region's frontier promise for the overrun protocol: region s
// emits nothing arriving before nextAt(s) + outBound(s) (inboxes are
// empty here — staged arrivals were drained before planning — so the
// heap minimum really is the earliest thing s can execute this window).
func (s *Sharded) planWindow(min Time) {
	limit := s.runLimit
	for r, e := range s.regions {
		if t, ok := e.nextAt(); ok {
			s.eot[r] = t
		} else {
			s.eot[r] = End
		}
		if s.spec {
			if s.eot[r] >= End {
				s.runs[r].frontier.Store(infBits)
			} else {
				s.runs[r].frontier.Store(math.Float64bits(float64(s.eot[r] + s.outBound[r])))
			}
			// Staged sends from the last window drained at the barrier:
			// their echoes are on heaps now, covered by the frontiers.
			s.runs[r].echo.Store(infBits)
		}
	}
	if s.mode == WindowDynamic {
		// Bellman relaxation to the fixpoint: eot[r] becomes the earliest
		// time region r could execute ANY event, now or in a later window
		// — its own heap minimum, or another region's earliest execution
		// plus the cheapest link between them. This is what makes empty
		// regions safe: they can still be woken by someone's output, and
		// the echo of that wake-up must bound the sender's own window.
		for changed := true; changed; {
			changed = false
			for r := range s.regions {
				for q := range s.regions {
					if q == r || s.eot[q] >= End {
						continue
					}
					lat := s.outBound[q]
					if s.inBound[r] > lat {
						lat = s.inBound[r]
					}
					if t := s.eot[q] + lat; t < s.eot[r] {
						s.eot[r] = t
						changed = true
					}
				}
			}
		}
	}
	fixedEnd := min + s.lookahead
	if fixedEnd > limit {
		fixedEnd = limit
	}
	extended := false
	for r := range s.regions {
		var end Time
		if s.mode == WindowDynamic {
			end = limit
			for q := range s.regions {
				if q == r || s.eot[q] >= End {
					continue
				}
				lat := s.outBound[q]
				if s.inBound[r] > lat {
					lat = s.inBound[r]
				}
				if b := s.eot[q] + lat; b < end {
					end = b
				}
			}
		} else {
			end = fixedEnd
		}
		s.ends[r] = end
	}
	s.act = s.act[:0]
	for r, e := range s.regions {
		t, ok := e.nextAt()
		if !ok {
			continue
		}
		// With no committed work, the overrun protocol may still make
		// provably-safe progress past the bound.
		if t < s.ends[r] || (s.spec && t < limit) {
			s.act = append(s.act, r)
			if s.mode == WindowDynamic && s.ends[r] > fixedEnd {
				extended = true
			}
		}
	}
	if extended {
		s.stats.DynamicExtensions++
	}
}

// window executes the planned window across the participating regions:
// inline on the coordinator when only one region has work (the common
// case for sparse traffic — no handoff, no wakeup), otherwise fanned to
// the persistent per-region workers with a WaitGroup barrier.
func (s *Sharded) window() {
	s.stats.Windows++
	if len(s.act) == 1 {
		s.runRegion(s.act[0])
		return
	}
	s.startWorkers()
	s.wg.Add(len(s.act))
	for _, r := range s.act {
		s.runs[r].work <- s.ends[r]
	}
	s.wg.Wait()
}

// runRegion is one region's share of the window: the committed run up to
// its planned end, then (in speculative mode) the overrun loop.
func (s *Sharded) runRegion(r int) {
	s.regions[r].runWindow(s.ends[r])
	if s.spec {
		s.overrun(r)
	}
}

// startWorkers lazily spawns the persistent per-region workers the first
// time a run hits a multi-participant window. They live until the run
// ends (stopWorkers), parked on their work channel between windows, so
// the steady-state barrier spawns no goroutines.
func (s *Sharded) startWorkers() {
	if s.workers {
		return
	}
	s.workers = true
	for r := range s.runs {
		go s.workerLoop(r)
	}
}

// workerStop is the sentinel window end that terminates a worker; no
// real window end is negative.
const workerStop Time = -1

func (s *Sharded) workerLoop(r int) {
	// ends[r] is published by planWindow before the channel send
	// (happens-before), so runRegion reading it is race-free.
	for end := range s.runs[r].work {
		if end == workerStop {
			return
		}
		s.runRegion(r)
		s.wg.Done()
	}
}

// stopWorkers terminates the persistent workers at the end of a run.
func (s *Sharded) stopWorkers() {
	if !s.workers {
		return
	}
	for r := range s.runs {
		s.runs[r].work <- workerStop
	}
	s.workers = false
}
