package core

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// FailOverNode removes a crashed evaluator from every partitioned fragment
// it served: survivors absorb its weight share, its unacknowledged input
// partitions are replayed from the producers' recovery logs onto the
// survivors, and downstream consumers are detached from its output streams
// so termination does not wait on an end-of-stream that will never come.
//
// Exactness rests on the engine's commit protocol: in fault-tolerant mode an
// input tuple is acknowledged if and only if its derived outputs are durably
// downstream, so the dead instance's per-shard recovery log is exactly the
// set of tuples whose effects are missing — replaying only those onto
// survivors is exactly-once.
//
// The call is idempotent and re-runnable. A retry after a partial failure —
// typically because a second evaluator died while the first failover was in
// flight — redoes the remaining steps: already-detached peers and
// already-drained logs are no-ops on the engine side. A failed attempt
// restores the bucket mirror, so the retry recomputes the identical
// moved-bucket set and eviction clears any partially replayed state before
// it is rebuilt; a fragment that already recovered moves no bucket and
// recalls nothing.
func (r *Responder) FailOverNode(node simnet.NodeID) error {
	r.protoMu.Lock()
	defer r.protoMu.Unlock()
	start := r.nowMs()

	r.mu.Lock()
	r.deadNodes[node] = true
	frags := make([]*respState, 0, len(r.fragments))
	for _, st := range r.fragments {
		frags = append(frags, st)
	}
	r.mu.Unlock()
	sort.Slice(frags, func(i, j int) bool { return frags[i].topo.Fragment < frags[j].topo.Fragment })

	var firstErr error
	for _, st := range frags {
		r.mu.Lock()
		touched := false
		for _, inst := range st.topo.Instances {
			if inst.Node == node {
				st.dead[inst.Index] = true
				touched = true
			}
		}
		w := zeroDead(st.weights, st.dead)
		dead := make([]int, 0, len(st.dead))
		for i := range st.dead {
			dead = append(dead, i)
		}
		fragment := st.topo.Fragment
		r.mu.Unlock()
		if !touched {
			continue
		}
		sort.Ints(dead)
		err := fmt.Errorf("core: fragment %s has no surviving instances", fragment)
		if w != nil {
			// Survivors absorb the dead weight; a stateful fragment also
			// recalls, evicts and replays the buckets that changed owner.
			err = r.deploy(st, w, dead, st.topo.Stateful)
		}
		outcome := "recovered"
		if err != nil {
			outcome = "failed"
			if firstErr == nil {
				firstErr = fmt.Errorf("core: failover of %s after losing %s: %w", fragment, node, err)
			}
		}
		r.obsFailovers[outcome].Inc()
		r.otl.Append(obs.Event{
			Kind:       obs.KindFailure,
			AtMs:       r.nowMs(),
			Node:       string(node),
			Fragment:   fragment,
			Outcome:    outcome,
			NewWeights: append([]float64(nil), w...),
			DurationMs: r.nowMs() - start,
		})
	}
	if firstErr == nil {
		r.obsRecoveryMs.Observe(r.nowMs() - start)
	}
	return firstErr
}

// AdmitInstance deploys a newly joined evaluator into a running stateless
// fragment without restarting the query: downstream consumers learn to
// expect its output stream before the first buffer can arrive, then every
// input producer extends its routing policy to cover the new instance under
// the given weights. The caller creates the instance's runtime (registering
// its endpoint) before calling and starts its driver only after this
// returns; inst.Index must equal the current instance count.
//
// Stateful (hash-partitioned) fragments reject live admission: their bucket
// maps are pinned at plan time, so new evaluators pick up hash work at the
// next query instead.
func (r *Responder) AdmitInstance(fragment string, inst InstanceRef, weights []float64) error {
	r.protoMu.Lock()
	defer r.protoMu.Unlock()
	r.mu.Lock()
	st := r.fragments[fragment]
	r.mu.Unlock()
	if st == nil {
		return fmt.Errorf("core: admit instance: unknown fragment %s", fragment)
	}
	if st.topo.Stateful {
		return fmt.Errorf("core: admit instance: %s is hash-partitioned; new evaluators join at the next query", fragment)
	}
	r.mu.Lock()
	n := len(st.topo.Instances)
	r.mu.Unlock()
	if inst.Index != n {
		return fmt.Errorf("core: admit instance: index %d, want %d", inst.Index, n)
	}
	if len(weights) != n+1 {
		return fmt.Errorf("core: admit instance: %d weights for %d instances", len(weights), n+1)
	}

	if err := r.pauseAll(st, true); err != nil {
		return err
	}
	defer func() { _ = r.pauseAll(st, false) }()

	// Downstream first: the consumers must account for the new producer
	// before any tuple it emits can reach them.
	for _, cons := range st.topo.Downstream {
		if r.nodeDead(cons.Node) {
			continue
		}
		if _, err := r.call(cons, st.topo.Output, &transport.Ctrl{
			Op: transport.CtrlExpectProducer, PeerNode: inst.Node, PeerService: inst.Service,
		}); err != nil {
			return err
		}
	}
	if err := r.eachLiveProducer(st, func(ex ExchangeTopology, prod InstanceRef) error {
		_, err := r.call(prod, ex.Exchange, &transport.Ctrl{
			Op: transport.CtrlAttach, PeerNode: inst.Node, PeerService: inst.Service, Weights: weights,
		})
		return err
	}); err != nil {
		return err
	}

	r.mu.Lock()
	st.topo.Instances = append(st.topo.Instances, inst)
	st.weights = append([]float64(nil), weights...)
	// Keep the neighbouring fragments' view coherent: the upstream
	// fragments' Downstream lists and the downstream fragments' input
	// producer lists gain the new instance, so later adaptations and
	// failovers include it.
	for _, ex := range st.topo.Inputs {
		for _, up := range r.fragments {
			if up.topo.Output == ex.Exchange {
				up.topo.Downstream = append(up.topo.Downstream, inst)
			}
		}
	}
	if st.topo.Output != "" {
		for _, down := range r.fragments {
			for i := range down.topo.Inputs {
				if down.topo.Inputs[i].Exchange == st.topo.Output {
					down.topo.Inputs[i].Producers = append(down.topo.Inputs[i].Producers, inst)
				}
			}
		}
	}
	r.mu.Unlock()

	r.obsJoined.Inc()
	r.otl.Append(obs.Event{
		Kind:       obs.KindMembership,
		AtMs:       r.nowMs(),
		Node:       string(inst.Node),
		Fragment:   fragment,
		NewWeights: append([]float64(nil), weights...),
		Detail:     "join",
	})
	r.bus.Publish("responder", r.node, TopicPolicy, PolicyUpdate{
		Fragment: fragment,
		Weights:  append([]float64(nil), weights...),
	})
	return nil
}
