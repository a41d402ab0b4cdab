package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/bus"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

// Assessment selects how the Diagnoser computes the per-instance cost
// c(p_i) (paper §3.1).
type Assessment uint8

// Assessment policies.
const (
	// A1 uses only the M1 processing-cost notifications of the subplan
	// instance. It effectively assumes communication overlaps with
	// processing thanks to pipelined parallelism.
	A1 Assessment = iota + 1
	// A2 additionally charges the per-tuple communication cost reported by
	// the M2 notifications of the subplans delivering data to the
	// instance; co-located pairs cost zero.
	A2
)

// String names the assessment.
func (a Assessment) String() string {
	switch a {
	case A1:
		return "A1"
	case A2:
		return "A2"
	default:
		return "Assessment(?)"
	}
}

// DiagnoserConfig tunes the assessment stage.
type DiagnoserConfig struct {
	// ThresA is the minimum |w'_i - w_i| required to notify the Responder
	// (paper default: 20%), avoiding adaptations with low expected
	// benefit.
	ThresA float64
	// Assessment selects A1 or A2.
	Assessment Assessment
	// CostFloorMs clamps the per-instance cost c(p_i) from below. A clone
	// whose window reports zero (or negative, NaN or Inf, possible with an
	// empty M1 window or degenerate timing) would otherwise dominate the
	// inverse-cost weights and starve every other instance. Zero selects
	// DefaultCostFloorMs.
	CostFloorMs float64
}

// DefaultCostFloorMs is the default lower clamp on assessed per-tuple cost.
// One microsecond of paper time is far below any real per-tuple cost in the
// experiments (which are O(0.1–10 ms)), so the clamp only engages on
// degenerate inputs.
const DefaultCostFloorMs = 1e-3

// DefaultDiagnoserConfig returns the paper's defaults.
func DefaultDiagnoserConfig() DiagnoserConfig {
	return DiagnoserConfig{ThresA: 0.20, Assessment: A1, CostFloorMs: DefaultCostFloorMs}
}

// Diagnoser gathers the MonitoringEventDetectors' notifications, maintains
// the current tuple-distribution vector W of every registered partitioned
// fragment, and proposes the balanced vector W' with w'_i ∝ 1/c(p_i)
// whenever some |w'_i − w_i| exceeds thresA (paper §3.1, Assessment).
type Diagnoser struct {
	bus  *bus.Bus
	node simnet.NodeID
	cfg  DiagnoserConfig

	mu        sync.Mutex
	fragments map[string]*diagState
	subs      []*bus.Subscription

	stopOnce sync.Once

	notificationsIn obs.Counter
	proposalsOut    obs.Counter
	obsIn           *obs.Counter
	obsProposals    *obs.Counter
	timeline        *obs.Timeline
	// clock stamps timeline events; SetClock installs it (nil stamps 0).
	clock atomic.Pointer[vtime.Clock]
}

type diagState struct {
	topo FragmentTopology
	// weights is the Diagnoser's view of the current W.
	weights []float64
	// procCost is the latest per-tuple processing cost per instance (M1).
	procCost map[int]float64
	// commCost is the latest per-tuple communication cost per instance and
	// producer key (M2), used by A2.
	commCost map[int]map[string]float64
	// dead marks instances whose evaluator crashed. They are excluded from
	// the completeness gate (a dead clone never reports again) and their
	// proposed weight is forced to zero.
	dead map[int]bool
}

// NewDiagnoser builds the diagnoser on the given node and subscribes it to
// the detectors and to the Responder's policy updates. Subscriptions are
// scoped to ctx (nil leaves the lifetime to Stop).
func NewDiagnoser(ctx context.Context, b *bus.Bus, node simnet.NodeID, cfg DiagnoserConfig) *Diagnoser {
	if cfg.Assessment == 0 {
		cfg.Assessment = A1
	}
	if cfg.CostFloorMs <= 0 {
		cfg.CostFloorMs = DefaultCostFloorMs
	}
	o := obs.Default()
	d := &Diagnoser{
		bus:          b,
		node:         node,
		cfg:          cfg,
		fragments:    make(map[string]*diagState),
		obsIn:        o.Counter(obs.MDiagNotificationsIn),
		obsProposals: o.Counter(obs.MDiagProposals),
		timeline:     o.Timeline(),
	}
	d.subs = append(d.subs,
		b.SubscribeContext(ctx, "diagnoser", node, TopicMED, d.onCost),
		b.SubscribeContext(ctx, "diagnoser", node, TopicPolicy, d.onPolicy),
	)
	return d
}

// SetClock sets the clock that stamps the Diagnoser's timeline events. Safe
// against concurrently recorded events.
func (d *Diagnoser) SetClock(c *vtime.Clock) { d.clock.Store(c) }

// Stop cancels the subscriptions. Idempotent and safe from multiple
// goroutines.
func (d *Diagnoser) Stop() {
	d.stopOnce.Do(func() {
		for _, s := range d.subs {
			s.Cancel()
		}
	})
}

// Register makes the diagnoser monitor one partitioned fragment. The GDQS
// registers every adaptable fragment at deployment.
func (d *Diagnoser) Register(topo FragmentTopology) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fragments[topo.Fragment] = &diagState{
		topo:     topo,
		weights:  append([]float64(nil), topo.Weights...),
		procCost: make(map[int]float64),
		commCost: make(map[int]map[string]float64),
		dead:     make(map[int]bool),
	}
}

// MarkNodeDead records that an evaluator crashed: every fragment instance it
// hosted is excluded from future assessments and proposed at weight zero.
// Stale cost observations of the dead instances are dropped so they cannot
// skew the next proposal.
func (d *Diagnoser) MarkNodeDead(node simnet.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, st := range d.fragments {
		for _, inst := range st.topo.Instances {
			if inst.Node != node {
				continue
			}
			st.dead[inst.Index] = true
			delete(st.procCost, inst.Index)
			delete(st.commCost, inst.Index)
		}
	}
}

// Extend admits a newly joined instance to a monitored fragment: the
// topology gains the instance and the diagnoser's view of W is replaced by
// weights, which must cover the grown instance count. Assessment resumes
// once the new clone reports its first cost window.
func (d *Diagnoser) Extend(fragment string, inst InstanceRef, weights []float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.fragments[fragment]
	if st == nil {
		return
	}
	st.topo.Instances = append(st.topo.Instances, inst)
	st.weights = append([]float64(nil), weights...)
}

// Stats reports notification and proposal counts for the overhead
// experiments.
func (d *Diagnoser) Stats() (notificationsIn, proposalsOut int64) {
	return d.notificationsIn.Value(), d.proposalsOut.Value()
}

func (d *Diagnoser) onPolicy(n bus.Notification) {
	up, ok := n.Payload.(PolicyUpdate)
	if !ok {
		return
	}
	d.mu.Lock()
	if st := d.fragments[up.Fragment]; st != nil {
		copy(st.weights, up.Weights)
	}
	d.mu.Unlock()
}

func (d *Diagnoser) onCost(n bus.Notification) {
	c, ok := n.Payload.(CostNotification)
	if !ok {
		return
	}
	d.notificationsIn.Inc()
	d.obsIn.Inc()
	d.mu.Lock()
	var target *diagState
	if c.IsComm {
		// Communication cost counts against the consuming instance.
		if st := d.fragments[c.ConsumerFragment]; st != nil {
			m := st.commCost[c.ConsumerInstance]
			if m == nil {
				m = make(map[string]float64)
				st.commCost[c.ConsumerInstance] = m
			}
			cost := c.AvgCostMs
			if c.SameNode {
				// Default configuration: communication between subplans on
				// the same machine is considered zero.
				cost = 0
			}
			m[c.Key] = cost
			target = st
		}
	} else {
		if st := d.fragments[c.Fragment]; st != nil {
			st.procCost[c.Instance] = c.AvgCostMs
			target = st
		}
	}
	var proposal *Proposal
	if target != nil {
		proposal = d.assessLocked(target)
	}
	d.mu.Unlock()
	if proposal != nil {
		d.bus.Publish("diagnoser", d.node, TopicDiagnosis, *proposal)
	}
}

// assessLocked computes W' for a fragment once every instance has reported,
// returning a proposal when the imbalance clears thresA.
func (d *Diagnoser) assessLocked(st *diagState) *Proposal {
	n := len(st.topo.Instances)
	costs := make([]float64, n)
	alive := 0
	for i := 0; i < n; i++ {
		if st.dead[i] {
			// A crashed clone takes no further load: cost stays zero as a
			// marker and balancedWeights pins its weight to zero.
			continue
		}
		alive++
		proc, ok := st.procCost[i]
		if !ok {
			return nil // not all live instances observed yet
		}
		c := proc
		if d.cfg.Assessment == A2 {
			for _, comm := range st.commCost[i] {
				c += comm
			}
		}
		// NaN and ±Inf come out of degenerate windows (0/0 per-tuple
		// divisions upstream); note that a NaN passes no ordered
		// comparison, so it must be tested explicitly before clamping.
		if math.IsNaN(c) || math.IsInf(c, 0) || c < d.cfg.CostFloorMs {
			c = d.cfg.CostFloorMs
		}
		costs[i] = c
	}
	if alive == 0 {
		return nil
	}
	weights := balancedWeightsExcluding(costs, st.dead)
	trigger := false
	for i := range weights {
		if math.Abs(weights[i]-st.weights[i]) >= d.cfg.ThresA {
			trigger = true
			break
		}
	}
	if !trigger {
		return nil
	}
	d.proposalsOut.Inc()
	d.obsProposals.Inc()
	d.timeline.Append(obs.Event{
		Kind:       obs.KindProposal,
		AtMs:       stampMs(&d.clock),
		Node:       string(d.node),
		Fragment:   st.topo.Fragment,
		OldWeights: append([]float64(nil), st.weights...),
		NewWeights: append([]float64(nil), weights...),
		Costs:      append([]float64(nil), costs...),
	})
	return &Proposal{Fragment: st.topo.Fragment, Weights: weights, Costs: costs}
}

// balancedWeights computes w_i ∝ 1/c_i, normalised.
func balancedWeights(costs []float64) []float64 {
	return balancedWeightsExcluding(costs, nil)
}

// balancedWeightsExcluding computes w_i ∝ 1/c_i over the live instances,
// normalised; dead instances get exactly zero.
func balancedWeightsExcluding(costs []float64, dead map[int]bool) []float64 {
	w := make([]float64, len(costs))
	sum := 0.0
	for i, c := range costs {
		if dead[i] {
			continue
		}
		w[i] = 1 / c
		sum += w[i]
	}
	total := 0.0
	first := -1
	for i := range w {
		if dead[i] {
			continue
		}
		if first < 0 {
			first = i
		}
		w[i] /= sum
		total += w[i]
	}
	// Absorb float residue so the engine's weight validation passes.
	if first >= 0 {
		w[first] += 1 - total
	}
	return w
}
