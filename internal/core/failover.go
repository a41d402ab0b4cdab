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
// already-drained logs are no-ops on the engine side, and the stateful
// discard/evict/replay cycle recomputes the identical moved-bucket set, so
// eviction clears any partially replayed state before it is rebuilt.
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
		fragment := st.topo.Fragment
		r.mu.Unlock()
		if !touched {
			continue
		}
		err := fmt.Errorf("core: fragment %s has no surviving instances", fragment)
		if w != nil {
			err = r.failOverFragment(st, w)
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

// failOverFragment runs the recovery protocol for one fragment whose dead
// set just grew, deploying w (dead components zero) and draining the dead
// instances' shards.
func (r *Responder) failOverFragment(st *respState, w []float64) error {
	if err := r.pauseAll(st, true); err != nil {
		return err
	}
	defer func() { _ = r.pauseAll(st, false) }()

	r.mu.Lock()
	deadIdx := make([]int, 0, len(st.dead))
	for i := range st.dead {
		deadIdx = append(deadIdx, i)
	}
	sort.Ints(deadIdx)
	r.mu.Unlock()

	var err error
	if st.topo.Stateful {
		err = r.failOverStateful(st, w, deadIdx)
	} else {
		err = r.failOverStateless(st, w, deadIdx)
	}
	if err != nil {
		return err
	}

	// Detach the dead instances' output streams so the downstream
	// consumers stop waiting for their end-of-stream. Queued tuples from
	// those streams are kept: they derive from inputs the dead instances
	// had acknowledged, which survivors will never regenerate.
	if st.topo.Output != "" {
		for _, cons := range st.topo.Downstream {
			if r.nodeDead(cons.Node) {
				continue
			}
			for _, di := range deadIdx {
				msg := ctrlMsg(st.topo.Output, &transport.Ctrl{Op: transport.CtrlDetach, Peer: di})
				if _, err := r.rpc.Call(r.ctx, cons.Node, cons.Service, msg); err != nil {
					return err
				}
			}
		}
	}

	r.mu.Lock()
	copy(st.weights, w)
	r.mu.Unlock()
	r.bus.Publish("responder", r.node, TopicPolicy, PolicyUpdate{
		Fragment:      st.topo.Fragment,
		Weights:       append([]float64(nil), w...),
		Retrospective: true,
	})
	return nil
}

// failOverStateless recovers a weighted fragment: survivors get the
// renormalised weights, then every producer drains its dead shards' logs by
// re-routing the entries under the new policy.
func (r *Responder) failOverStateless(st *respState, w []float64, deadIdx []int) error {
	for _, ex := range st.topo.Inputs {
		for _, prod := range ex.Producers {
			if r.nodeDead(prod.Node) {
				continue
			}
			if _, err := r.rpc.Call(r.ctx, prod.Node, prod.Service, ctrlMsg(ex.Exchange,
				&transport.Ctrl{Op: transport.CtrlSetWeights, Weights: w})); err != nil {
				return err
			}
		}
	}
	for _, ex := range st.topo.Inputs {
		for _, prod := range ex.Producers {
			if r.nodeDead(prod.Node) {
				continue
			}
			for _, di := range deadIdx {
				reply, err := r.rpc.Call(r.ctx, prod.Node, prod.Service, ctrlMsg(ex.Exchange,
					&transport.Ctrl{Op: transport.CtrlReplayLost, Peer: di}))
				if err != nil {
					return err
				}
				if reply.Routed > 0 {
					r.countMoved(st.topo.Fragment, reply.Routed)
				}
			}
		}
	}
	return nil
}

// failOverStateful recovers a hash-partitioned fragment. The dead instances'
// buckets move to survivors: live instances discard and evict any state of
// buckets that changed owner, the producers install the new bucket map, the
// stateful (build) logs replay the moved buckets onto their new owners, and
// the stateless (probe) logs drain the dead shards under the new map. On any
// error the mirror policy is rolled back so a retry recomputes the identical
// moved set and re-runs the cycle from the eviction step.
func (r *Responder) failOverStateful(st *respState, w []float64, deadIdx []int) error {
	r.mu.Lock()
	oldMap := st.mirror.OwnerMap()
	moved, err := st.mirror.SetWeights(w)
	newMap := st.mirror.OwnerMap()
	r.mu.Unlock()
	if err != nil {
		return err
	}
	rollback := func() {
		r.mu.Lock()
		_ = st.mirror.SetOwnerMap(oldMap)
		r.mu.Unlock()
	}

	stateful := make(map[string]bool, len(st.topo.Inputs))
	for _, ex := range st.topo.Inputs {
		stateful[ex.Exchange] = ex.Stateful
	}
	type resend struct {
		exchange string
		prodIdx  int
		consIdx  int
		seqs     []int64
	}
	var resends []resend
	for _, cons := range st.topo.Instances {
		if r.deadInstance(st, cons) {
			continue
		}
		reply, err := r.rpc.Call(r.ctx, cons.Node, cons.Service, ctrlMsg("",
			&transport.Ctrl{Op: transport.CtrlDiscard, Buckets: moved}))
		if err != nil {
			rollback()
			return err
		}
		for key, seqs := range reply.DiscardedSeqs {
			ex, prodIdx, err := transport.ParseStreamKey(key)
			if err != nil {
				rollback()
				return err
			}
			if stateful[ex] {
				continue // covered by the replay below
			}
			resends = append(resends, resend{exchange: ex, prodIdx: prodIdx, consIdx: cons.Index, seqs: seqs})
		}
		if _, err := r.rpc.Call(r.ctx, cons.Node, cons.Service, ctrlMsg("",
			&transport.Ctrl{Op: transport.CtrlEvict, Buckets: moved})); err != nil {
			rollback()
			return err
		}
	}

	for _, ex := range st.topo.Inputs {
		for _, prod := range ex.Producers {
			if r.nodeDead(prod.Node) {
				continue
			}
			if _, err := r.rpc.Call(r.ctx, prod.Node, prod.Service, ctrlMsg(ex.Exchange,
				&transport.Ctrl{Op: transport.CtrlSetBucketMap, BucketMap: newMap})); err != nil {
				rollback()
				return err
			}
		}
	}

	for _, ex := range st.topo.Inputs {
		for _, prod := range ex.Producers {
			if r.nodeDead(prod.Node) {
				continue
			}
			if ex.Stateful {
				if len(moved) > 0 {
					if _, err := r.rpc.Call(r.ctx, prod.Node, prod.Service, ctrlMsg(ex.Exchange,
						&transport.Ctrl{Op: transport.CtrlReplay, Buckets: moved})); err != nil {
						rollback()
						return err
					}
					r.stateReplays.Inc()
					r.obsReplays.Inc()
				}
				// The dead consumer shards hold no recoverable work once the
				// moved buckets replayed; release them so EOS can flow.
				for _, di := range deadIdx {
					if _, err := r.rpc.Call(r.ctx, prod.Node, prod.Service, ctrlMsg(ex.Exchange,
						&transport.Ctrl{Op: transport.CtrlDetachConsumer, Peer: di})); err != nil {
						rollback()
						return err
					}
				}
			} else {
				for _, di := range deadIdx {
					reply, err := r.rpc.Call(r.ctx, prod.Node, prod.Service, ctrlMsg(ex.Exchange,
						&transport.Ctrl{Op: transport.CtrlReplayLost, Peer: di}))
					if err != nil {
						rollback()
						return err
					}
					if reply.Routed > 0 {
						r.countMoved(st.topo.Fragment, reply.Routed)
					}
				}
			}
		}
	}

	for _, rs := range resends {
		if len(rs.seqs) == 0 {
			continue
		}
		prod, ok := r.producerRef(st, rs.exchange, rs.prodIdx)
		if !ok {
			rollback()
			return fmt.Errorf("core: discard report names unknown stream %s/%d", rs.exchange, rs.prodIdx)
		}
		if r.nodeDead(prod.Node) {
			rollback()
			return fmt.Errorf("core: recalled tuples of stream %s/%d are stranded on dead node %s",
				rs.exchange, rs.prodIdx, prod.Node)
		}
		msg := ctrlMsg(rs.exchange, &transport.Ctrl{Op: transport.CtrlResend, Seqs: rs.seqs})
		msg.ConsumerIdx = rs.consIdx
		if _, err := r.rpc.Call(r.ctx, prod.Node, prod.Service, msg); err != nil {
			rollback()
			return err
		}
		r.countMoved(st.topo.Fragment, int64(len(rs.seqs)))
	}
	return nil
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
	if st.topo.Output != "" {
		for _, cons := range st.topo.Downstream {
			if r.nodeDead(cons.Node) {
				continue
			}
			msg := ctrlMsg(st.topo.Output, &transport.Ctrl{
				Op: transport.CtrlExpectProducer, PeerNode: inst.Node, PeerService: inst.Service,
			})
			if _, err := r.rpc.Call(r.ctx, cons.Node, cons.Service, msg); err != nil {
				return err
			}
		}
	}
	for _, ex := range st.topo.Inputs {
		for _, prod := range ex.Producers {
			if r.nodeDead(prod.Node) {
				continue
			}
			msg := ctrlMsg(ex.Exchange, &transport.Ctrl{
				Op: transport.CtrlAttach, PeerNode: inst.Node, PeerService: inst.Service,
				Weights: weights,
			})
			if _, err := r.rpc.Call(r.ctx, prod.Node, prod.Service, msg); err != nil {
				return err
			}
		}
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
