package services

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/qerr"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/ws"
)

// This file is the session's recovery manager — the elastic-cluster half of
// the QuerySession. Failure handling is a pipeline with one authoritative
// serialization point, the recovery goroutine:
//
//	detect (membership event | heartbeat | peer-loss | driver error)
//	  → reportDead: mark the machine dead, enqueue it
//	  → recoveryLoop: diagnose (Diagnoser.MarkNodeDead), interrupt the
//	    machine's drivers, check recoverability, then have the Responder
//	    replay the dead machine's unacknowledged work onto survivors
//	    (FailOverNode) with its weight pinned to zero.
//
// Live joins take the mirror path: a membership "join" event admits the
// newcomer into every eligible fragment (AdmitInstance) with a fresh
// runtime and a nonzero weight share, without restarting the query.

// The heartbeat detector's timing: probes are cheap one-message RPCs, so a
// short real-time interval keeps detection latency well under typical query
// durations. Two missed probes, 50 ms real time, diagnose a machine as dead;
// unreachable-node errors are definitive and bypass the count.
const (
	heartbeatEvery  = 25 * time.Millisecond
	heartbeatMisses = 2
)

// maxFailoverRetries bounds how many times one node's failover is retried
// when further evaluators die while the protocol is in flight.
const maxFailoverRetries = 8

// drive runs one fragment driver to completion and classifies its error.
// In an elastic session, deaths the recovery manager already owns are
// swallowed: an error from a runtime whose machine is diagnosed dead (we
// interrupted it ourselves, or it tripped over its own crashed host) is the
// failure being *handled*, not a new one.
func (s *QuerySession) drive(id string, rt *engine.FragmentRuntime) {
	err := rt.Run(s.ctx)
	if err != nil && !s.swallowDriverErr(rt, err) {
		s.fail("fragment "+id, err)
	}
	s.driverDone()
}

// driverDone gives back one slot of the active-driver count.
func (s *QuerySession) driverDone() {
	s.rtMu.Lock()
	s.active--
	if s.active == 0 {
		s.rtCond.Broadcast()
	}
	s.rtMu.Unlock()
}

// swallowDriverErr reports whether a driver error is an already-diagnosed
// (or self-diagnosing) evaluator death rather than a query failure.
func (s *QuerySession) swallowDriverErr(rt *engine.FragmentRuntime, err error) bool {
	if !s.elastic {
		return false
	}
	if s.nodeDead(rt.Node()) {
		return true
	}
	var down *transport.NodeDownError
	if errors.As(err, &down) && down.Node == rt.Node() {
		// The runtime's own machine crash-stopped underneath it.
		s.reportDead(down.Node)
		return true
	}
	return false
}

// waitDrivers blocks until every driver — including ones added by live
// joins after the query started — has returned.
func (s *QuerySession) waitDrivers() {
	s.rtMu.Lock()
	for s.active > 0 {
		s.rtCond.Wait()
	}
	s.rtMu.Unlock()
}

// reportDead is the single entry point for every failure detector:
// membership events, heartbeat misses, producer peer-loss discoveries, and
// driver errors all funnel here. The first report of a machine marks it
// dead immediately — so concurrent driver errors from it are swallowed from
// that instant — and hands it to the recovery goroutine; repeats are no-ops.
func (s *QuerySession) reportDead(node simnet.NodeID) {
	s.rtMu.Lock()
	if s.dead[node] {
		s.rtMu.Unlock()
		return
	}
	s.dead[node] = true
	s.rtMu.Unlock()
	select {
	case s.deadCh <- node:
	default:
		// Channel capacity exceeds any plausible machine count; if we get
		// here the session is already failing, and losing the enqueue only
		// skips a failover for a query that cannot finish anyway.
	}
}

// nodeDead reports whether a machine has been diagnosed dead.
func (s *QuerySession) nodeDead(node simnet.NodeID) bool {
	s.rtMu.Lock()
	defer s.rtMu.Unlock()
	return s.dead[node]
}

// onMembership receives cluster membership notifications. "leave" is an
// authoritative death diagnosis (the cluster publishes it at the instant of
// the kill); "join" offers a new evaluator to the running query.
func (s *QuerySession) onMembership(n bus.Notification) {
	ev, ok := n.Payload.(core.NodeEvent)
	if !ok {
		return
	}
	switch ev.Kind {
	case "leave":
		s.reportDead(ev.Node)
	case "join":
		select {
		case s.joinCh <- ev:
		default:
		}
	}
}

// recoveryLoop is the serialization point for membership changes: every
// failover and every admission runs here, one at a time, so the Responder's
// view of the topology changes atomically with the session's.
func (s *QuerySession) recoveryLoop() {
	for {
		select {
		case <-s.ctx.Done():
			return
		case node := <-s.deadCh:
			s.handleNodeLoss(node)
		case ev := <-s.joinCh:
			s.admitNode(ev)
		}
	}
}

// handleNodeLoss runs the failure pipeline for one dead machine: diagnose,
// interrupt its local drivers, check the query is recoverable, then replay
// its lost work onto survivors. If another evaluator dies while the
// failover is in flight (the Responder surfaces this as a NodeDownError
// naming the second machine), the second loss is handled first and the
// original failover retried — bounded, and idempotent on the Responder
// side — instead of wedging the session.
func (s *QuerySession) handleNodeLoss(node simnet.NodeID) {
	obs.Default().Timeline().Append(obs.Event{
		Kind:    obs.KindFailure,
		AtMs:    s.host.clock.NowMs(),
		Node:    string(node),
		Outcome: "detected",
	})
	if s.diagnoser != nil {
		s.diagnoser.MarkNodeDead(node)
	}

	// Interrupt the dead machine's drivers. The machine is already marked
	// dead (reportDead runs first), so drive() swallows the cause.
	cause := qerr.NodeLoss("evaluator "+string(node), &transport.NodeDownError{Node: node})
	s.rtMu.Lock()
	var local []*engine.FragmentRuntime
	for _, rt := range s.runtimes {
		if rt.Node() == node {
			local = append(local, rt)
		}
	}
	s.rtMu.Unlock()
	for _, rt := range local {
		rt.Interrupt(cause)
	}
	if len(local) == 0 {
		// The machine hosts no fragment of this query (e.g. a data node
		// the plan does not read); nothing to fail over.
		return
	}

	if err := s.unrecoverable(node); err != nil {
		s.fail("node loss", qerr.NodeLoss("evaluator "+string(node), err))
		return
	}
	if s.responder == nil {
		s.fail("node loss", qerr.NodeLoss("evaluator "+string(node),
			errors.New("services: no responder to run failover")))
		return
	}

	for attempt := 0; ; attempt++ {
		err := s.responder.FailOverNode(node)
		if err == nil {
			break
		}
		var down *transport.NodeDownError
		if errors.As(err, &down) && down.Node != node && attempt < maxFailoverRetries {
			// A second evaluator died mid-failover. Mark it so in-flight
			// driver errors are swallowed, recover it first (FailOverNode
			// is idempotent and skips already-handled work), then retry.
			s.rtMu.Lock()
			first := !s.dead[down.Node]
			s.dead[down.Node] = true
			s.rtMu.Unlock()
			if first {
				s.handleNodeLoss(down.Node)
			}
			continue
		}
		s.fail("failover", qerr.NodeLoss("evaluator "+string(node), err))
		return
	}
	s.failovers.Add(1)
}

// unrecoverable returns a descriptive error when losing the machine dooms
// the query: some fragment it hosted is not partitioned (no replica can
// take over), or every instance of a fragment is now dead.
func (s *QuerySession) unrecoverable(node simnet.NodeID) error {
	type tally struct {
		touched bool
		alive   int
	}
	s.rtMu.Lock()
	perFrag := map[string]*tally{}
	for id, rt := range s.runtimes {
		fid := id[:strings.LastIndex(id, "#")]
		t := perFrag[fid]
		if t == nil {
			t = &tally{}
			perFrag[fid] = t
		}
		if rt.Node() == node {
			t.touched = true
		}
		if !s.dead[rt.Node()] {
			t.alive++
		}
	}
	s.rtMu.Unlock()
	for _, frag := range s.plan.Fragments {
		t := perFrag[frag.ID]
		if t == nil || !t.touched {
			continue
		}
		if !frag.Partitioned {
			return fmt.Errorf("services: fragment %s is not partitioned; no surviving instance can take over", frag.ID)
		}
		if t.alive == 0 {
			return fmt.Errorf("services: fragment %s lost every instance", frag.ID)
		}
	}
	return nil
}

// heartbeatLoop actively probes one fragment instance per evaluating
// machine. An unreachable-node error is a definitive diagnosis; other
// failures (e.g. timeouts) must repeat heartbeatMisses times before the
// machine is declared dead. Probes ride the same RPC path as adaptations,
// so a machine that can acknowledge a probe can also acknowledge a
// reweighting.
func (s *QuerySession) heartbeatLoop() {
	ticker := time.NewTicker(heartbeatEvery)
	defer ticker.Stop()
	missed := map[simnet.NodeID]int{}
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
		}
		for node, ref := range s.probeTargets() {
			err := s.responder.Ping(ref)
			if err == nil {
				missed[node] = 0
				continue
			}
			if s.ctx.Err() != nil {
				return
			}
			var down *transport.NodeDownError
			if errors.As(err, &down) {
				s.reportDead(down.Node)
				continue
			}
			missed[node]++
			if missed[node] >= heartbeatMisses {
				missed[node] = 0
				s.reportDead(node)
			}
		}
	}
}

// probeTargets picks one live fragment instance per distinct evaluating
// machine (excluding the coordinator, whose death takes the session with
// it regardless).
func (s *QuerySession) probeTargets() map[simnet.NodeID]core.InstanceRef {
	s.rtMu.Lock()
	defer s.rtMu.Unlock()
	out := map[simnet.NodeID]core.InstanceRef{}
	for _, rt := range s.runtimes {
		node := rt.Node()
		if node == s.host.node || s.dead[node] {
			continue
		}
		if _, ok := out[node]; !ok {
			out[node] = core.InstanceRef{Index: rt.Instance(), Node: node, Service: rt.Service()}
		}
	}
	return out
}

// admitNode offers a newly joined machine to every fragment that can
// accept it. Only stateless fragments connected entirely by weighted
// exchanges are join-eligible mid-query; hash-partitioned fragments pick
// the newcomer up at the next query, when the plan cache re-schedules
// against the bumped topology epoch (see DESIGN.md §5h).
func (s *QuerySession) admitNode(ev core.NodeEvent) {
	node := ev.Node
	st := s.host.site(node)
	if node == s.host.node || s.nodeDead(node) || st == nil || !st.node.Alive() {
		return
	}
	for _, frag := range s.plan.Fragments {
		if !s.joinEligible(frag) || !fragmentServable(frag.Root, st.services, st.store) {
			continue
		}
		if err := s.admitInto(frag, node, st); err != nil {
			// Joining is opportunistic: on any error the query simply
			// continues on its existing membership.
			continue
		}
		obs.Default().Timeline().Append(obs.Event{
			Kind:     obs.KindMembership,
			AtMs:     s.host.clock.NowMs(),
			Node:     string(node),
			Fragment: frag.ID,
			Detail:   "join",
		})
		s.joined.Add(1)
	}
}

// joinEligible reports whether a fragment can absorb a new instance while
// running: it must be partitioned, stateless, and wired to its neighbours
// exclusively by weighted (stateless) exchanges.
func (s *QuerySession) joinEligible(frag *physical.FragmentSpec) bool {
	if !frag.Partitioned || frag.Stateful || frag.Output == nil {
		return false
	}
	if frag.Output.Policy != physical.PolicyWeighted || frag.Output.Stateful {
		return false
	}
	for _, up := range s.plan.Fragments {
		if up.Output != nil && up.Output.ConsumerFragment == frag.ID {
			if up.Output.Policy != physical.PolicyWeighted || up.Output.Stateful {
				return false
			}
		}
	}
	return true
}

// fragmentServable checks the joining machine can actually evaluate the
// fragment: every Web Service operation it calls is registered there, and
// every table it scans is hosted there.
func fragmentServable(op *physical.OpSpec, svcs *ws.Registry, store *dataset.Store) bool {
	if op == nil {
		return true
	}
	switch op.Kind {
	case physical.KOpCall:
		if svcs == nil {
			return false
		}
		if _, err := svcs.Lookup(op.Fn); err != nil {
			return false
		}
	case physical.KScan:
		if store == nil {
			return false
		}
		if _, err := store.Table(op.Table); err != nil {
			return false
		}
	}
	for _, child := range op.Children {
		if !fragmentServable(child, svcs, store) {
			return false
		}
	}
	return true
}

// admitInto builds a runtime for one new instance of a fragment and splices
// it into the running query: the Responder attaches it to its neighbours
// (consumers learn of the new producer before any producer routes to it)
// and installs a weight vector giving the newcomer an equal share of the
// live instances' work; the Diagnoser extends its cost bookkeeping; a MED
// is added for the machine if it never hosted one; and finally a driver is
// started under the session's active counter.
func (s *QuerySession) admitInto(frag *physical.FragmentSpec, node simnet.NodeID, st *site) error {
	w, ok := s.responder.CurrentWeights(frag.ID)
	if !ok {
		return fmt.Errorf("services: fragment %s is not registered for adaptation", frag.ID)
	}
	idx := len(w)
	live := 0
	for _, x := range w {
		if x > 0 {
			live++
		}
	}
	if live == 0 {
		return fmt.Errorf("services: fragment %s has no live instances to share with", frag.ID)
	}
	// Newcomer gets 1/(live+1); survivors scale by live/(live+1).
	share := 1.0 / float64(live+1)
	neww := make([]float64, idx+1)
	sum := 0.0
	for i, x := range w {
		neww[i] = x * (1 - share)
		sum += neww[i]
	}
	neww[idx] = 1 - sum

	// Reserve a driver slot while the query is provably still running; the
	// reservation also keeps run() from completing under our feet.
	s.rtMu.Lock()
	if s.active == 0 || s.ctx.Err() != nil {
		s.rtMu.Unlock()
		return fmt.Errorf("services: query finished before %s could join", node)
	}
	s.active++
	s.rtMu.Unlock()
	committed := false
	defer func() {
		if !committed {
			s.driverDone()
		}
	}()

	rt, err := s.newInstanceRuntime(frag, idx, node, st)
	if err != nil {
		return err
	}

	// The new consumer's producer list comes from the plan, which may name
	// evaluators that have since died; detach them so end-of-stream does
	// not wait for machines that will never send.
	s.rtMu.Lock()
	deadNow := make(map[simnet.NodeID]bool, len(s.dead))
	for n := range s.dead {
		deadNow[n] = true
	}
	s.rtMu.Unlock()
	for _, up := range s.plan.Fragments {
		if up.Output == nil || up.Output.ConsumerFragment != frag.ID {
			continue
		}
		cons := rt.Consumer(up.Output.ID)
		if cons == nil {
			continue
		}
		for i, n := range up.Instances {
			if deadNow[n] {
				_ = cons.DetachProducer(i)
			}
		}
	}

	ref := core.InstanceRef{Index: idx, Node: node, Service: rt.Service()}
	if err := s.responder.AdmitInstance(frag.ID, ref, neww); err != nil {
		rt.Stop()
		return err
	}
	if s.diagnoser != nil {
		s.diagnoser.Extend(frag.ID, ref, neww)
	}

	s.rtMu.Lock()
	if s.meds[node] == nil {
		s.meds[node] = core.NewMED(s.ctx, s.host.bus, node, s.host.cfg.MED)
		s.meds[node].SetClock(s.host.clock)
	}
	if s.ctx.Err() != nil {
		// Close() has started tearing the session down; it will not see
		// this runtime, so stop it ourselves.
		s.rtMu.Unlock()
		rt.Stop()
		return s.ctx.Err()
	}
	s.runtimes[frag.InstanceID(idx)] = rt
	committed = true
	s.rtMu.Unlock()
	go s.drive(frag.InstanceID(idx), rt)
	return nil
}
