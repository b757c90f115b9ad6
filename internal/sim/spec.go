package sim

// Speculative overrun: a region that exhausts its committed window keeps
// executing events past the window end instead of idling at the barrier,
// as far as it can prove nothing new can still arrive below them.
//
// While executing its window, every region publishes a monotone frontier
// promise BEFORE each event: "nothing I emit from here on arrives
// anywhere below frontier" (event time + my cheapest outgoing link). A
// region past its window end computes
//
//	bound = min( other regions' live frontiers,
//	             its own inbox's minimum staged arrival,
//	             the run limit )
//
// and commits any event strictly below bound exactly as a later
// conservative window would have — provably identical outcome, no
// journal, no rollback, deterministic by construction. The memory order
// makes this sound: a frontier store is sequenced after the sends of
// every earlier event, and the reader loads the frontiers before its
// inbox minimum, so any send it cannot see arrives at or above the
// frontier it read. One arrival class escapes that proof — the cascade
// of the region's OWN in-window output, which lands in inboxes it has
// already read — so each region also maintains a self-echo cap
// (regionRun.echo) and never runs past it.
//
// How far each region overruns depends on wall-clock interleaving
// (frontier reads race with execution), but the committed event sequence
// — and so every simulation output — is identical across runs and
// identical to the sequential engine; only Stats may vary.

import "math"

// Speculate enables overrun for subsequent Run/RunUntil calls and wires
// the per-region frontier publication into the engines. Driver context
// only.
func (s *Sharded) Speculate() {
	s.spec = true
	for r, e := range s.regions {
		e.frontier = &s.runs[r].frontier
	}
}

// overrunBound computes the time below which region r provably cannot
// receive anything new:
//
//   - the other regions' frontier promises (their own heaps emit nothing
//     arriving earlier);
//   - every OTHER region's staged-arrival minimum plus its outgoing
//     bound — a send already sitting in q's inbox executes in a later
//     window and can cascade back into r no earlier than its arrival
//     plus q's cheapest outgoing link (r's own sends staged BEFORE this
//     call are covered the same way; sends r stages while running on a
//     stale bound are covered by the regionRun.echo cap its caller
//     applies alongside this bound);
//   - r's own staged-arrival minimum;
//   - the run limit.
//
// Read order is load-bearing: ALL frontiers first, THEN the inbox
// minimums. A send some region staged before its latest frontier publish
// is visible to the later inbox loads (the publish is sequenced after
// it, and Go atomics are sequentially consistent); a send staged after
// that publish arrives at or above the frontier value read. Either way
// every arrival — and every cascade it can trigger — lands at or above
// the returned bound, so the bound stays sound even when reused stale.
func (s *Sharded) overrunBound(r int) Time {
	bound := s.runLimit
	for q := range s.runs {
		if q == r {
			continue
		}
		if f := Time(math.Float64frombits(s.runs[q].frontier.Load())); f < bound {
			bound = f
		}
	}
	for q := range s.inboxes {
		m := Time(math.Float64frombits(s.inboxes[q].minBits.Load()))
		if q != r {
			m += s.outBound[q]
		}
		if m < bound {
			bound = m
		}
	}
	return bound
}

// overrun runs region r past its committed window end, committing every
// event that lies provably below both the overrun bound and the region's
// self-echo cap. Runs on r's worker goroutine.
func (s *Sharded) overrun(r int) {
	rr := &s.runs[r]
	e := s.regions[r]
	bound := s.overrunBound(r)
	for {
		ev := e.peekLive()
		if ev == nil {
			return
		}
		// The region's own in-window sends cap the overrun (see
		// regionRun.echo): the loop's callbacks lower it as they stage,
		// so it is reloaded every iteration.
		echo := Time(math.Float64frombits(rr.echo.Load()))
		eff := min(bound, echo)
		if ev.at >= eff {
			// The other regions keep executing and publishing while we
			// run: the proof may have strengthened since the last look
			// (the self-echo cap only ever tightens).
			if b := s.overrunBound(r); b > bound {
				bound = b
				if min(b, echo) > eff {
					continue
				}
			}
			return
		}
		// Provably below anything that can still arrive: commit it
		// exactly as a later conservative window would.
		e.publish(ev.at)
		e.Step()
		rr.specCommitted++
	}
}
