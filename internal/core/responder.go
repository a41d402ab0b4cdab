package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bus"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// Response selects how the Responder redistributes data (paper §3.1).
type Response uint8

// Response policies.
const (
	// R2 (prospective) changes only the routing of tuples not yet
	// distributed; buffered tuples and recovery logs are untouched.
	R2 Response = iota + 1
	// R1 (retrospective) additionally redistributes the tuples held in the
	// recovery logs — those buffered to be sent or sent but not yet
	// processed — effectively recreating operator state on other machines.
	// It is mandatory for stateful fragments.
	R1
)

// String names the response policy.
func (r Response) String() string {
	switch r {
	case R1:
		return "R1"
	case R2:
		return "R2"
	default:
		return "Response(?)"
	}
}

// ResponderConfig tunes the response stage.
type ResponderConfig struct {
	// Response selects prospective or retrospective redistribution for
	// stateless fragments; stateful fragments always use R1.
	Response Response
	// MaxProgress vetoes adaptation when the producers have already
	// routed this fraction of their estimated output ("if the execution
	// is not close to completion", after Chaudhuri et al.'s progress
	// estimator).
	MaxProgress float64
	// MinChange skips proposals whose W' differs from the deployed
	// distribution by less than this in every component. Because the
	// Diagnoser learns about deployments asynchronously, several identical
	// proposals can queue up behind one imbalance; re-deploying them would
	// pause the producers for nothing. Zero selects the default of 0.05.
	MinChange float64
}

// DefaultResponderConfig returns the defaults used in the evaluation.
func DefaultResponderConfig() ResponderConfig {
	return ResponderConfig{Response: R2, MaxProgress: 0.9}
}

// ResponderStats counts response activity for the overhead experiments. It
// is a point-in-time view assembled from the responder's registry-backed
// counters.
type ResponderStats struct {
	ProposalsIn  int64
	Adaptations  int64
	SkippedLate  int64 // vetoed by progress estimation
	TuplesMoved  int64 // recalled or replayed retrospectively
	StateReplays int64
	// ProgressFallbacks counts progress checks that had no cardinality
	// estimate and fell back to routing progress.
	ProgressFallbacks int64
}

// AdaptationEvent is one entry of the Responder's timeline: what it decided
// about a proposal and how long deploying the decision took.
type AdaptationEvent struct {
	// AtMs is the decision time in paper milliseconds since the responder
	// was created.
	AtMs     float64
	Fragment string
	// Outcome is "adapted", "skipped-late" (progress veto) or "failed".
	Outcome string
	// Retrospective reports whether the deployed response was R1.
	Retrospective bool
	// Weights is the deployed distribution W' (nil unless adapted).
	Weights []float64
	// DurationMs is the wall time the response protocol took.
	DurationMs float64
}

// Responder receives imbalance proposals from the Diagnoser and deploys
// them: it contacts the producing evaluators to estimate progress, then
// drives the engine's control plane — prospective weight swaps for R2, and
// the full pause/recall/evict/replay/resend cycle for R1 (paper §3.1,
// Response).
type Responder struct {
	bus  *bus.Bus
	tr   transport.Transport
	node simnet.NodeID
	cfg  ResponderConfig
	rpc  *transport.Caller
	// ctx scopes every control RPC to the owning query: a cancellation
	// releases an adaptation parked mid-protocol instead of letting it wait
	// out the RPC timeout against a torn-down fragment.
	ctx context.Context

	// clock stamps timeline events. SetClock is called from the session
	// goroutine while the subscription's delivery goroutine reads it.
	clock atomic.Pointer[vtime.Clock]

	// protoMu serializes deployment protocols — proposal-driven
	// adaptations, failure recovery and live-instance admission — so at
	// most one pause/redistribute/resume cycle is in flight per responder.
	protoMu sync.Mutex

	mu        sync.Mutex
	fragments map[string]*respState
	deadNodes map[simnet.NodeID]bool
	timeline  []AdaptationEvent
	sub       *bus.Subscription

	stopOnce sync.Once

	// Instance-local counters behind the ResponderStats view.
	proposalsIn       obs.Counter
	adaptations       obs.Counter
	skippedLate       obs.Counter
	tuplesMoved       obs.Counter
	stateReplays      obs.Counter
	progressFallbacks obs.Counter

	// Process-wide registry handles, resolved at construction.
	outcomeCounters map[string]*obs.Counter
	obsTuplesMoved  *obs.Counter
	obsReplays      *obs.Counter
	obsFallbacks    *obs.Counter
	obsDuration     *obs.Histogram
	obsFailovers    map[string]*obs.Counter
	obsJoined       *obs.Counter
	obsRecoveryMs   *obs.Histogram
	otl             *obs.Timeline
}

type respState struct {
	topo FragmentTopology
	// weights mirrors the deployed distribution vector.
	weights []float64
	// mirror reproduces the producers' hash policy so the Responder can
	// compute the canonical new owner map and the moved buckets (stateful
	// fragments only).
	mirror *engine.HashPolicy
	// dead marks instance indices whose evaluator crashed; they are skipped
	// by every control RPC and pinned to weight zero.
	dead map[int]bool
}

// NewResponder builds the responder on the given node. Its subscription and
// control RPCs are scoped to ctx (nil leaves the lifetime to Stop). The
// clock stamps the adaptation timeline; nil uses a private clock at the
// default scale.
func NewResponder(ctx context.Context, b *bus.Bus, tr transport.Transport, node simnet.NodeID, cfg ResponderConfig) *Responder {
	if cfg.Response == 0 {
		cfg.Response = R2
	}
	if cfg.MaxProgress <= 0 {
		cfg.MaxProgress = 0.9
	}
	if cfg.MinChange <= 0 {
		cfg.MinChange = 0.05
	}
	o := obs.Default()
	r := &Responder{
		bus:       b,
		tr:        tr,
		node:      node,
		cfg:       cfg,
		ctx:       ctx,
		fragments: make(map[string]*respState),
		deadNodes: make(map[simnet.NodeID]bool),
		rpc:       transport.NewCaller(tr, node, "aqp/responder@"+string(node), 60*time.Second),
		outcomeCounters: map[string]*obs.Counter{
			"adapted":      o.Counter(obs.Label(obs.MAdaptations, "outcome", "adapted")),
			"skipped-late": o.Counter(obs.Label(obs.MAdaptations, "outcome", "skipped-late")),
			"redundant":    o.Counter(obs.Label(obs.MAdaptations, "outcome", "redundant")),
			"failed":       o.Counter(obs.Label(obs.MAdaptations, "outcome", "failed")),
		},
		obsTuplesMoved: o.Counter(obs.MTuplesMoved),
		obsReplays:     o.Counter(obs.MStateReplays),
		obsFallbacks:   o.Counter(obs.MProgressFallbacks),
		obsDuration:    o.Histogram(obs.MAdaptationDuration, obs.DefBucketsLatencyMs),
		obsFailovers: map[string]*obs.Counter{
			"recovered": o.Counter(obs.Label(obs.MFailovers, "outcome", "recovered")),
			"failed":    o.Counter(obs.Label(obs.MFailovers, "outcome", "failed")),
		},
		obsJoined:     o.Counter(obs.MNodesJoined),
		obsRecoveryMs: o.Histogram(obs.MRecoveryDuration, obs.DefBucketsLatencyMs),
		otl:           o.Timeline(),
	}
	r.clock.Store(vtime.NewClock(vtime.DefaultScale))
	r.sub = b.SubscribeContext(ctx, "responder", node, TopicDiagnosis, r.onProposal)
	return r
}

// Stop cancels the subscription and releases the RPC endpoint. Idempotent
// and safe from multiple goroutines.
func (r *Responder) Stop() {
	r.stopOnce.Do(func() {
		r.sub.Cancel()
		r.rpc.Close()
	})
}

// Register makes the responder manage one partitioned fragment.
func (r *Responder) Register(topo FragmentTopology) error {
	st := &respState{
		topo:    topo,
		weights: append([]float64(nil), topo.Weights...),
		dead:    make(map[int]bool),
	}
	if topo.Stateful {
		buckets := topo.Buckets
		if buckets <= 0 {
			buckets = engine.DefaultBuckets
		}
		mirror, err := engine.NewHashPolicy(nil, buckets, topo.Weights)
		if err != nil {
			return fmt.Errorf("core: responder mirror for %s: %w", topo.Fragment, err)
		}
		st.mirror = mirror
	}
	r.mu.Lock()
	r.fragments[topo.Fragment] = st
	r.mu.Unlock()
	return nil
}

// SetClock replaces the timeline clock. Safe against concurrently recorded
// events.
func (r *Responder) SetClock(c *vtime.Clock) { r.clock.Store(c) }

// nowMs stamps paper time.
func (r *Responder) nowMs() float64 { return stampMs(&r.clock) }

// Stats returns a snapshot of the activity counters.
func (r *Responder) Stats() ResponderStats {
	return ResponderStats{
		ProposalsIn:       r.proposalsIn.Value(),
		Adaptations:       r.adaptations.Value(),
		SkippedLate:       r.skippedLate.Value(),
		TuplesMoved:       r.tuplesMoved.Value(),
		StateReplays:      r.stateReplays.Value(),
		ProgressFallbacks: r.progressFallbacks.Value(),
	}
}

// Timeline returns the recorded adaptation events in order.
func (r *Responder) Timeline() []AdaptationEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]AdaptationEvent(nil), r.timeline...)
}

func (r *Responder) record(e AdaptationEvent) {
	r.mu.Lock()
	r.timeline = append(r.timeline, e)
	r.mu.Unlock()
	r.outcomeCounters[e.Outcome].Inc()
	if e.Outcome == "adapted" {
		r.obsDuration.Observe(e.DurationMs)
	}
	r.otl.Append(obs.Event{
		Kind:          obs.KindOutcome,
		AtMs:          e.AtMs,
		Node:          string(r.node),
		Fragment:      e.Fragment,
		Outcome:       e.Outcome,
		Retrospective: e.Retrospective,
		NewWeights:    append([]float64(nil), e.Weights...),
		DurationMs:    e.DurationMs,
	})
}

// onProposal handles one Diagnoser proposal. Proposals are processed
// sequentially on the subscription's delivery goroutine, so at most one
// adaptation is in flight.
func (r *Responder) onProposal(n bus.Notification) {
	p, ok := n.Payload.(Proposal)
	if !ok {
		return
	}
	r.mu.Lock()
	st := r.fragments[p.Fragment]
	r.mu.Unlock()
	r.proposalsIn.Inc()
	if st == nil {
		return
	}
	r.protoMu.Lock()
	defer r.protoMu.Unlock()
	start := r.nowMs()
	if err := r.adapt(st, p); err != nil {
		// An adaptation failure must not kill the query; execution simply
		// continues under the old distribution. Surface it on the bus for
		// observability.
		r.record(AdaptationEvent{AtMs: start, Fragment: p.Fragment, Outcome: "failed",
			DurationMs: r.nowMs() - start})
		r.bus.Publish("responder", r.node, "responder.error", err.Error())
	}
}

func (r *Responder) adapt(st *respState, p Proposal) error {
	// A proposal racing a failure diagnosis or a live join can carry a
	// stale view: reject arity mismatches, and pin dead components to zero
	// with the rest renormalised before deciding anything else.
	r.mu.Lock()
	if len(p.Weights) != len(st.weights) {
		r.mu.Unlock()
		return fmt.Errorf("core: proposal for %s has %d weights, want %d",
			p.Fragment, len(p.Weights), len(st.weights))
	}
	if len(st.dead) > 0 {
		p.Weights = zeroDead(p.Weights, st.dead)
		if p.Weights == nil {
			r.mu.Unlock()
			return fmt.Errorf("core: proposal for %s leaves no live weight", p.Fragment)
		}
	}
	r.mu.Unlock()

	// Drop proposals that would redeploy (nearly) the current distribution:
	// they are stale duplicates from the asynchronous proposal pipeline.
	r.mu.Lock()
	redundant := true
	for i := range p.Weights {
		d := p.Weights[i] - st.weights[i]
		if d < 0 {
			d = -d
		}
		if d >= r.cfg.MinChange {
			redundant = false
			break
		}
	}
	r.mu.Unlock()
	if redundant {
		r.record(AdaptationEvent{AtMs: r.nowMs(), Fragment: p.Fragment, Outcome: "redundant"})
		return nil
	}

	// Estimate the subplan's progress (after Chaudhuri et al.): expected
	// input from the producing evaluators' estimates, work done from the
	// tuples each clone has actually processed. Routing progress alone
	// would overestimate badly: a fast data source can finish distributing
	// long before the slow machine's queue drains, which is precisely when
	// retrospective redistribution pays off.
	var processed, est, routed int64
	for _, ex := range st.topo.Inputs {
		var exEst int64
		for _, prod := range ex.Producers {
			if r.nodeDead(prod.Node) {
				continue
			}
			reply, err := r.call(prod, ex.Exchange, &transport.Ctrl{Op: transport.CtrlProgress})
			if err != nil {
				return err
			}
			if reply.Est > exEst {
				exEst = reply.Est
			}
			routed += reply.Routed
		}
		est += exEst
		for _, cons := range st.topo.Instances {
			if r.deadInstance(st, cons) {
				continue
			}
			reply, err := r.call(cons, ex.Exchange, &transport.Ctrl{Op: transport.CtrlProgress})
			if err != nil {
				return err
			}
			processed += reply.Routed
		}
	}
	startMs := r.nowMs()
	progressDenom := est
	if est <= 0 {
		// No cardinality estimate (the optimiser could not produce one, or
		// the producers have not reported yet). Silently waiving the
		// MaxProgress veto here would let near-complete executions pay the
		// full redistribution cost for no remaining benefit, so fall back to
		// routing progress: processed over tuples routed so far. It can only
		// understate the denominator, making the veto fire earlier, which is
		// the safe direction for a fallback.
		progressDenom = routed
		r.progressFallbacks.Inc()
		r.obsFallbacks.Inc()
		r.otl.Append(obs.Event{
			Kind:     obs.KindProgressFallback,
			AtMs:     startMs,
			Node:     string(r.node),
			Fragment: p.Fragment,
			Tuples:   processed,
			Detail:   fmt.Sprintf("no estimate; routed=%d", routed),
		})
	}
	if progressDenom > 0 && float64(processed)/float64(progressDenom) >= r.cfg.MaxProgress {
		r.skippedLate.Inc()
		r.record(AdaptationEvent{AtMs: startMs, Fragment: p.Fragment, Outcome: "skipped-late"})
		return nil
	}

	retrospective := r.cfg.Response == R1 || st.topo.Stateful
	if err := r.deploy(st, p.Weights, nil, retrospective); err != nil {
		return err
	}
	r.adaptations.Inc()
	r.record(AdaptationEvent{
		AtMs: startMs, Fragment: p.Fragment, Outcome: "adapted",
		Retrospective: retrospective,
		Weights:       append([]float64(nil), p.Weights...),
		DurationMs:    r.nowMs() - startMs,
	})
	return nil
}

// deploy moves a fragment to the distribution w. It is the one
// redistribution protocol (DESIGN.md §5): proposals, machine
// loss and failover retries differ only in its inputs. dead lists the
// instances whose shards are drained onto survivors and detached (nil for
// an adaptation); recall asks live consumers to give back queued tuples
// (R1). With neither, it is R2: only the route changes.
//
//  1. route: the mirror's minimally moved bucket map, or the weights;
//  2. pause every live producer;
//  3. each live consumer discards the moved (stateful) or all (stateless)
//     queued tuples, and a stateful one evicts the moved buckets;
//  4. install the route on every live producer;
//  5. per input exchange and live producer: replay the moved buckets of a
//     stateful exchange, then per dead instance detach it (stateful) or
//     re-route its logged tuples (stateless);
//  6. resend the recalled stateless tuples;
//  7. detach each dead instance's output stream downstream;
//  8. resume, commit the weights, and publish the PolicyUpdate.
//
// Any failure after step 1 restores the mirror to the map the producers
// still route by, resumes them, and commits nothing.
func (r *Responder) deploy(st *respState, w []float64, dead []int, recall bool) (err error) {
	retrospective := recall || len(dead) > 0
	route := transport.Ctrl{Op: transport.CtrlSetWeights, Weights: w}
	var moved []int32
	if st.mirror != nil {
		r.mu.Lock()
		deployed := st.mirror.OwnerMap()
		moved, err = st.mirror.SetWeights(w)
		route = transport.Ctrl{Op: transport.CtrlSetBucketMap, BucketMap: st.mirror.OwnerMap()}
		r.mu.Unlock()
		if err != nil {
			return err
		}
		defer func() {
			if err != nil {
				r.mu.Lock()
				_ = st.mirror.SetOwnerMap(deployed)
				r.mu.Unlock()
			}
		}()
		// Only moved buckets are recalled: a discard without buckets means
		// "all", and would drop queued build tuples no replay restores.
		recall = recall && len(moved) > 0
	}
	if st.mirror == nil || len(moved) > 0 || len(dead) > 0 {
		if err = r.redistribute(st, route, moved, dead, recall); err != nil {
			return err
		}
	}
	r.mu.Lock()
	copy(st.weights, w)
	r.mu.Unlock()
	r.bus.Publish("responder", r.node, TopicPolicy, PolicyUpdate{
		Fragment:      st.topo.Fragment,
		Weights:       append([]float64(nil), w...),
		Retrospective: retrospective,
	})
	return nil
}

// redistribute runs steps 2–7 of deploy. The producers are paused only
// when something already distributed moves, and resumed however it ends.
func (r *Responder) redistribute(st *respState, route transport.Ctrl, moved []int32, dead []int, recall bool) error {
	if recall || len(dead) > 0 {
		if err := r.pauseAll(st, true); err != nil {
			return err
		}
		defer func() { _ = r.pauseAll(st, false) }()
	}

	// Recall every input exchange of an instance in one atomic discard:
	// filtering the build queue ahead of the probe queue would let probes
	// run against state that left the build flow but was not yet replayed.
	stateful := make(map[string]bool, len(st.topo.Inputs))
	for _, ex := range st.topo.Inputs {
		stateful[ex.Exchange] = ex.Stateful
	}
	type resend struct {
		exchange         string
		prodIdx, consIdx int
		seqs             []int64
	}
	var resends []resend
	for _, cons := range st.topo.Instances {
		if !recall || r.deadInstance(st, cons) {
			continue
		}
		reply, err := r.call(cons, "", &transport.Ctrl{Op: transport.CtrlDiscard, Buckets: moved})
		if err != nil {
			return err
		}
		for key, seqs := range reply.DiscardedSeqs {
			ex, prodIdx, err := transport.ParseStreamKey(key)
			if err != nil {
				return err
			}
			if !stateful[ex] { // stateful streams are covered by the replay
				resends = append(resends, resend{exchange: ex, prodIdx: prodIdx, consIdx: cons.Index, seqs: seqs})
			}
		}
		if st.mirror != nil {
			if _, err := r.call(cons, "", &transport.Ctrl{Op: transport.CtrlEvict, Buckets: moved}); err != nil {
				return err
			}
		}
	}

	if err := r.eachLiveProducer(st, func(ex ExchangeTopology, prod InstanceRef) error {
		ctrl := route
		_, err := r.call(prod, ex.Exchange, &ctrl)
		return err
	}); err != nil {
		return err
	}

	// Build logs are never acknowledged, so replaying them recreates the
	// moved buckets' state at the new owners; after that a dead stateful
	// shard holds no recoverable work and is only detached, while a dead
	// stateless shard's unacknowledged log is exactly its missing work.
	if err := r.eachLiveProducer(st, func(ex ExchangeTopology, prod InstanceRef) error {
		if ex.Stateful && len(moved) > 0 {
			if _, err := r.call(prod, ex.Exchange, &transport.Ctrl{Op: transport.CtrlReplay, Buckets: moved}); err != nil {
				return err
			}
			r.stateReplays.Inc()
			r.obsReplays.Inc()
			r.otl.Append(obs.Event{
				Kind:          obs.KindReplay,
				AtMs:          r.nowMs(),
				Node:          string(r.node),
				Fragment:      st.topo.Fragment,
				Retrospective: true,
				Detail:        "state replay " + ex.Exchange,
			})
		}
		drain := transport.CtrlReplayLost
		if ex.Stateful {
			drain = transport.CtrlDetachConsumer
		}
		for _, di := range dead {
			reply, err := r.call(prod, ex.Exchange, &transport.Ctrl{Op: drain, Peer: di})
			if err != nil {
				return err
			}
			if reply.Routed > 0 {
				r.countMoved(st.topo.Fragment, reply.Routed)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	for _, rs := range resends {
		if len(rs.seqs) == 0 {
			continue
		}
		prod, ok := r.producerRef(st, rs.exchange, rs.prodIdx)
		if !ok {
			return fmt.Errorf("core: discard report names unknown stream %s/%d", rs.exchange, rs.prodIdx)
		}
		if r.nodeDead(prod.Node) {
			return fmt.Errorf("core: recalled tuples of stream %s/%d are stranded on dead node %s",
				rs.exchange, rs.prodIdx, prod.Node)
		}
		msg := ctrlMsg(rs.exchange, &transport.Ctrl{Op: transport.CtrlResend, Seqs: rs.seqs})
		msg.ConsumerIdx = rs.consIdx
		if _, err := r.rpc.Call(r.ctx, prod.Node, prod.Service, msg); err != nil {
			return err
		}
		r.countMoved(st.topo.Fragment, int64(len(rs.seqs)))
	}

	// Downstream consumers stop waiting for the dead instances' EOS. Their
	// queued tuples from those streams stay: they derive from inputs the
	// dead instances had acknowledged, which survivors never regenerate.
	for _, cons := range st.topo.Downstream {
		if r.nodeDead(cons.Node) {
			continue
		}
		for _, di := range dead {
			if _, err := r.call(cons, st.topo.Output, &transport.Ctrl{Op: transport.CtrlDetach, Peer: di}); err != nil {
				return err
			}
		}
	}
	return nil
}

// countMoved accounts one batch of retrospectively re-routed tuples.
func (r *Responder) countMoved(fragment string, n int64) {
	r.tuplesMoved.Add(n)
	r.obsTuplesMoved.Add(n)
	r.otl.Append(obs.Event{
		Kind:     obs.KindReplay,
		AtMs:     r.nowMs(),
		Node:     string(r.node),
		Fragment: fragment,
		Tuples:   n,
	})
}

// producerRef resolves a producer instance of one of the fragment's input
// exchanges.
func (r *Responder) producerRef(st *respState, exchange string, prodIdx int) (InstanceRef, bool) {
	for _, ex := range st.topo.Inputs {
		if ex.Exchange != exchange {
			continue
		}
		for _, prod := range ex.Producers {
			if prod.Index == prodIdx {
				return prod, true
			}
		}
	}
	return InstanceRef{}, false
}

// eachLiveProducer calls fn for every producer instance feeding st whose
// machine is alive, exchange by exchange, and stops at the first error.
func (r *Responder) eachLiveProducer(st *respState, fn func(ExchangeTopology, InstanceRef) error) error {
	for _, ex := range st.topo.Inputs {
		for _, prod := range ex.Producers {
			if r.nodeDead(prod.Node) {
				continue
			}
			if err := fn(ex, prod); err != nil {
				return err
			}
		}
	}
	return nil
}

// call sends one control request to a fragment instance and waits for the
// reply.
func (r *Responder) call(ref InstanceRef, exchange string, ctrl *transport.Ctrl) (*transport.Ctrl, error) {
	return r.rpc.Call(r.ctx, ref.Node, ref.Service, ctrlMsg(exchange, ctrl))
}

// pauseAll pauses or resumes every producer feeding the fragment. A pause
// that fails anywhere resumes them all before reporting the error: callers
// register their resume only once the pause has succeeded, and a producer
// left paused blocks its driver until the query times out.
func (r *Responder) pauseAll(st *respState, pause bool) error {
	op := transport.CtrlResume
	if pause {
		op = transport.CtrlPause
	}
	var firstErr error
	_ = r.eachLiveProducer(st, func(ex ExchangeTopology, prod InstanceRef) error {
		if _, err := r.call(prod, ex.Exchange, &transport.Ctrl{Op: op}); err != nil && firstErr == nil {
			firstErr = err
		}
		return nil
	})
	if pause && firstErr != nil {
		_ = r.pauseAll(st, false)
	}
	return firstErr
}

// Ping probes one fragment instance's control endpoint and reports the
// transport error when the hosting machine is unreachable; sessions use it
// as the heartbeat primitive behind failure detection.
func (r *Responder) Ping(ref InstanceRef) error {
	_, err := r.call(ref, "", &transport.Ctrl{Op: transport.CtrlPing})
	return err
}

// CurrentWeights reports the deployed distribution vector of a managed
// fragment (dead instances at zero), or false for an unknown fragment.
func (r *Responder) CurrentWeights(fragment string) ([]float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.fragments[fragment]
	if st == nil {
		return nil, false
	}
	return append([]float64(nil), st.weights...), true
}

// nodeDead reports whether an evaluator has been diagnosed as crashed.
func (r *Responder) nodeDead(n simnet.NodeID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deadNodes[n]
}

// deadInstance reports whether one of st's instances is dead, by index or by
// hosting node.
func (r *Responder) deadInstance(st *respState, ref InstanceRef) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return st.dead[ref.Index] || r.deadNodes[ref.Node]
}

// zeroDead pins the dead components of w to zero and renormalises the rest
// proportionally; it returns nil when no live weight remains.
func zeroDead(w []float64, dead map[int]bool) []float64 {
	out := append([]float64(nil), w...)
	sum := 0.0
	for i := range out {
		if dead[i] {
			out[i] = 0
		} else {
			sum += out[i]
		}
	}
	alive := len(out) - len(dead)
	if alive <= 0 {
		return nil
	}
	if sum <= 0 {
		// Degenerate: every survivor proposed at zero — spread evenly.
		for i := range out {
			if !dead[i] {
				out[i] = 1 / float64(alive)
			}
		}
		return out
	}
	total := 0.0
	first := -1
	for i := range out {
		if dead[i] {
			continue
		}
		if first < 0 {
			first = i
		}
		out[i] /= sum
		total += out[i]
	}
	out[first] += 1 - total
	return out
}

func ctrlMsg(exchange string, ctrl *transport.Ctrl) *transport.Message {
	return &transport.Message{Kind: transport.KindControl, Exchange: exchange, Ctrl: ctrl}
}

// TopologyOf derives the adaptivity topology of every partitioned fragment
// in a physical plan; the GDQS registers these with the Diagnoser and
// Responder at deployment.
func TopologyOf(plan *physical.Plan, buckets int) []FragmentTopology {
	var out []FragmentTopology
	for _, frag := range plan.Fragments {
		if !frag.Partitioned {
			continue
		}
		topo := FragmentTopology{
			Fragment: frag.ID,
			Stateful: frag.Stateful,
			Weights:  append([]float64(nil), frag.InitialWeights...),
			Buckets:  buckets,
		}
		for i, node := range frag.Instances {
			topo.Instances = append(topo.Instances, InstanceRef{
				Index: i, Node: node, Service: "frag/" + frag.InstanceID(i),
			})
		}
		if frag.Output != nil {
			topo.Output = frag.Output.ID
			for _, cons := range plan.Fragments {
				if cons.ID != frag.Output.ConsumerFragment {
					continue
				}
				for i, node := range cons.Instances {
					topo.Downstream = append(topo.Downstream, InstanceRef{
						Index: i, Node: node, Service: "frag/" + cons.InstanceID(i),
					})
				}
			}
		}
		for _, other := range plan.Fragments {
			if other.Output == nil || other.Output.ConsumerFragment != frag.ID {
				continue
			}
			ext := ExchangeTopology{
				Exchange: other.Output.ID,
				Policy:   other.Output.Policy,
				Stateful: other.Output.Stateful,
			}
			for i, node := range other.Instances {
				ext.Producers = append(ext.Producers, InstanceRef{
					Index: i, Node: node, Service: "frag/" + other.InstanceID(i),
				})
			}
			topo.Inputs = append(topo.Inputs, ext)
		}
		out = append(out, topo)
	}
	return out
}
