package core

import (
	"errors"
	"sort"

	"p2psum/internal/p2p"
	"p2psum/internal/topology"
)

// Domain construction (§4.1): summary-peer election, the sumpeer/localsum
// broadcast protocol, and the find walks of the stragglers.

// ElectSummaryPeers picks the k highest-degree nodes as summary peers,
// exploiting peer heterogeneity as §3.1 prescribes for hybrid
// architectures. Ties break on the lower id.
func (s *System) ElectSummaryPeers(k int) []p2p.NodeID {
	if k < 1 {
		k = 1
	}
	if k > s.net.Len() {
		k = s.net.Len()
	}
	ids := make([]p2p.NodeID, s.net.Len())
	for i := range ids {
		ids[i] = p2p.NodeID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := s.net.Degree(ids[i]), s.net.Degree(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	s.AssignSummaryPeers(ids[:k])
	return s.sps
}

// AssignSummaryPeers designates the given nodes as summary peers and wires
// the long-range links between them ("the summary peer SP sends the request
// to the set of summary peers it knows", §5.2.2).
func (s *System) AssignSummaryPeers(ids []p2p.NodeID) {
	s.sps = append([]p2p.NodeID(nil), ids...)
	sort.Slice(s.sps, func(i, j int) bool { return s.sps[i] < s.sps[j] })
	for _, id := range s.sps {
		p := s.peers[id]
		p.role = RoleSummaryPeer
		p.clearSP()
		// A summary peer claims itself in the liveness view: the assignment
		// is shared configuration, so every process records the same claim
		// and Coverage counts summary peers identically everywhere.
		s.net.Liveness().SetSP(int(id), int(id))
		p.cl = NewCooperationList(s.cfg.Mode)
		p.gs = s.newStore()
		var others []p2p.NodeID
		for _, o := range s.sps {
			if o != id {
				others = append(others, o)
			}
		}
		p.knownSPs = others
	}
	s.wireDispatchGroups()
}

// wireDispatchGroups aligns a sharded-dispatch transport with the domain
// layout: every node maps to the dispatch group of its nearest summary
// peer (ties to the lowest), so one domain's handlers share one serialized
// dispatcher while distinct domains run concurrently — the per-domain
// execution model of §4 ("each domain maintains its own global summary").
// A transport without dispatch groups, or one that has already carried
// traffic, is left untouched; any mapping is semantically valid, the
// domain partition is the one that buys parallelism.
func (s *System) wireDispatchGroups() {
	gt, ok := s.net.(p2p.DispatchGrouper)
	if !ok || gt.DispatchGroups() <= 1 || len(s.sps) == 0 {
		return
	}
	seeds := make([]int, len(s.sps))
	for i, sp := range s.sps {
		seeds[i] = int(sp)
	}
	part := topology.NearestSeeds(gt.Graph(), seeds)
	d := gt.DispatchGroups()
	gt.SetGroupBy(func(id p2p.NodeID) int {
		if part[id] < 0 {
			return int(id) % d // unreachable from every SP: spread evenly
		}
		return part[id] % d
	})
}

// Construct runs the §4.1 domain construction: every summary peer
// broadcasts a sumpeer message with the configured TTL, peers adopt the
// closest summary peer and ship their local summaries, and stragglers that
// no broadcast reached locate a domain with a selective walk. The transport
// is settled to quiescence.
//
// On a transport that hosts only part of the overlay (p2p.Localizer, i.e.
// TCPTransport), Construct drives the local share only: local summary
// peers broadcast, local stragglers walk — every process of the deployment
// calls Construct and each drives its own half, while remote peers react
// purely through their message handlers in their own process.
func (s *System) Construct() error {
	if len(s.sps) == 0 {
		return errors.New("core: no summary peers assigned")
	}
	// Both phases run under Exec so driver-side state writes (seenRounds,
	// walk adoptions) are serialized with handler-side mutation on
	// concurrent transports.
	s.net.Exec(func() {
		s.round++
		for _, id := range s.sps {
			if p2p.IsLocal(s.net, id) {
				s.broadcastSumpeer(id)
			}
		}
	})
	s.net.Settle()
	s.net.Exec(func() {
		// Stragglers: peers outside every broadcast radius use find.
		for _, p := range s.peers {
			if p.role == RoleClient && p.curSP() < 0 && s.net.Online(p.id) && p2p.IsLocal(s.net, p.id) {
				s.findDomain(p)
			}
		}
	})
	s.net.Settle()
	s.built = true
	s.armGossip()
	return nil
}

// broadcastSumpeer floods the announcement from the summary peer.
func (s *System) broadcastSumpeer(spID p2p.NodeID) {
	sp := s.peers[spID]
	sp.seenRounds[sumpeerKey{spID, s.round}] = true
	for _, nb := range s.net.Neighbors(spID) {
		s.net.SendNew(MsgSumpeer, spID, nb, s.cfg.ConstructionTTL-1,
			SumpeerPayload{SP: spID, Round: s.round, Hops: 1})
	}
}

// findDomain runs the selective walk of the find protocol and adopts the
// summary peer of the first partner reached.
func (s *System) findDomain(p *Peer) {
	s.addStat(func(st *Stats) { st.FindWalks++ })
	// The accept callback reads other peers' domain pointers: on a
	// sharded-dispatch transport those peers' handlers may be mutating
	// them concurrently (sp is atomic for exactly this read).
	res := s.net.SelectiveWalk(MsgFind, p.id, s.cfg.FindBudget, func(id p2p.NodeID) bool {
		if id == p.id {
			return false
		}
		o := s.peers[id]
		if o.role == RoleSummaryPeer {
			return true
		}
		osp := o.curSP()
		return osp >= 0 && s.net.Online(osp)
	})
	if res.Found < 0 {
		return
	}
	target := s.peers[res.Found]
	spID := target.id
	if target.role == RoleClient {
		spID = target.curSP()
		if spID < 0 {
			return // the partner detached while the walk was in flight
		}
	}
	p.adopt(spID, s.hopsTo(p.id, spID))
}

// hopsTo estimates the hop distance between two nodes (used for the
// closer-summary-peer comparison; the paper notes latency or any other
// metric works).
func (s *System) hopsTo(a, b p2p.NodeID) int {
	if d := s.net.HopsBetween(a, b, 6); d >= 0 {
		return d
	}
	return 7
}

// adopt makes p a partner of spID, shipping its local summary.
func (p *Peer) adopt(spID p2p.NodeID, hops int) {
	p.setSP(spID, hops)
	payload := LocalsumPayload{Rejoin: p.sys.built}
	if p.sys.cfg.DataLevel && p.local != nil {
		payload.Tree = p.local.Clone()
	}
	p.sys.net.SendNew(MsgLocalsum, p.id, spID, 0, payload)
}

// onSumpeer implements the §4.1 construction rules at a receiving peer.
func (p *Peer) onSumpeer(msg *p2p.Message) {
	pl := msg.Payload.(SumpeerPayload)
	key := sumpeerKey{pl.SP, pl.Round}
	if p.seenRounds[key] {
		return // duplicate broadcast copy
	}
	p.seenRounds[key] = true

	if p.role == RoleClient {
		cur := p.curSP()
		switch {
		case cur < 0:
			// First sumpeer message: become a partner.
			p.adopt(pl.SP, pl.Hops)
		case cur != pl.SP && pl.Hops < p.curSPHops():
			// A strictly closer summary peer: drop the old partnership.
			p.sys.net.SendNew(MsgDrop, p.id, cur, 0, nil)
			p.adopt(pl.SP, pl.Hops)
		}
	}

	// Forward the broadcast while TTL remains.
	if msg.TTL > 0 {
		fwd := SumpeerPayload{SP: pl.SP, Round: pl.Round, Hops: pl.Hops + 1}
		for _, nb := range p.sys.net.Neighbors(p.id) {
			if nb != msg.From {
				p.sys.net.SendNew(MsgSumpeer, p.id, nb, msg.TTL-1, fwd)
			}
		}
	}
}

// onLocalsum registers (or refreshes) a partner at the summary peer.
func (p *Peer) onLocalsum(msg *p2p.Message) {
	if p.role != RoleSummaryPeer {
		return
	}
	pl := msg.Payload.(LocalsumPayload)
	if !pl.Rejoin || p.sys.cfg.MergeOnJoin {
		// Construction-time localsum (or the merge-on-join ablation):
		// merge immediately, descriptions are fresh. The store routes the
		// merge to the owning shards, each under its own lock.
		if p.sys.cfg.DataLevel && pl.Tree != nil {
			if err := p.gs.Merge(pl.Tree); err != nil {
				// Incompatible vocabulary: register the partner anyway but
				// flag it for the next pull.
				p.cl.Set(msg.From, Stale)
				return
			}
		}
		p.cl.Set(msg.From, Fresh)
		return
	}
	// Later join (§4.3): record the partner but defer the merge to the
	// next reconciliation; value 1 marks the need to pull it.
	p.cl.Set(msg.From, Stale)
	p.maybeReconcile()
}
