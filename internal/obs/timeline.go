package obs

import "sync"

// EventKind classifies adaptation-timeline entries.
type EventKind string

// Timeline event kinds, in the order a full adaptation traverses them.
const (
	// KindMEDNotify is a MonitoringEventDetector forwarding a windowed M1/M2
	// average whose relative change cleared thresM.
	KindMEDNotify EventKind = "med-notify"
	// KindProposal is a Diagnoser proposing a rebalanced W'.
	KindProposal EventKind = "proposal"
	// KindOutcome is a Responder decision about a proposal: outcome is
	// "adapted", "skipped-late", "redundant" or "failed".
	KindOutcome EventKind = "outcome"
	// KindReplay is one R1 state replay or tuple resend, with its size.
	KindReplay EventKind = "replay"
	// KindProgressFallback marks a progress estimate computed from routing
	// progress because no cardinality estimate was available.
	KindProgressFallback EventKind = "progress-fallback"
	// KindFailure marks an evaluator classified as dead (crash-stop or
	// unreachable) and the per-fragment recovery steps that follow; Outcome
	// distinguishes "detected", "recovered" and "failed".
	KindFailure EventKind = "failure"
	// KindMembership marks a cluster membership change: Detail is "join" or
	// "leave" and Node names the evaluator.
	KindMembership EventKind = "membership"
	// KindSpill marks a memory-budget breach response: a join or aggregate
	// partition grace-hash-spilled to storage, a sort run flushed, or a
	// spilled partition re-partitioned on reload. Detail names the operator
	// and partition, Tuples the spilled tuple count.
	KindSpill EventKind = "spill"
)

// Event is one adaptation-timeline entry. Fields beyond Seq/AtMs/Kind are
// populated per kind; zero values are omitted from the JSON dump.
type Event struct {
	// Seq is the process-wide append order (monotonic, never reused), so a
	// reader can detect ring evictions between two snapshots.
	Seq int64 `json:"seq"`
	// AtMs is the publication time in paper milliseconds.
	AtMs float64   `json:"at_ms"`
	Kind EventKind `json:"kind"`
	// Node is the component's hosting machine; Fragment the subplan the
	// event concerns.
	Node     string `json:"node,omitempty"`
	Fragment string `json:"fragment,omitempty"`
	// Key is the MED grouping key (m1:frag#i or m2:frag#i->frag#j).
	Key string `json:"key,omitempty"`
	// AvgCostMs is the windowed average that triggered a med-notify, or the
	// per-instance cost vector's source for proposals (see Costs).
	AvgCostMs float64 `json:"avg_cost_ms,omitempty"`
	// OldWeights/NewWeights are the distribution vectors around a proposal
	// or deployment.
	OldWeights []float64 `json:"old_weights,omitempty"`
	NewWeights []float64 `json:"new_weights,omitempty"`
	// Costs are the per-instance costs c(p_i) behind a proposal.
	Costs []float64 `json:"costs,omitempty"`
	// Outcome is the Responder's decision (outcome events only).
	Outcome string `json:"outcome,omitempty"`
	// Retrospective reports whether a deployment used R1.
	Retrospective bool `json:"retrospective,omitempty"`
	// DurationMs is how long deploying a decision took.
	DurationMs float64 `json:"duration_ms,omitempty"`
	// Tuples is a replay/resend size, or the progress numerator for
	// fallback events.
	Tuples int64 `json:"tuples,omitempty"`
	// Detail carries anything else worth keeping (error text, ratios).
	Detail string `json:"detail,omitempty"`
}

// DefaultTimelineCap bounds the default timeline ring. At a few hundred
// bytes per event this keeps the whole timeline under ~1 MB while holding
// far more adaptations than any single query produces.
const DefaultTimelineCap = 4096

// Timeline is an append-only bounded ring of adaptation events. When full,
// the oldest event is evicted (and counted), so the timeline always holds
// the most recent history — the part a live debugging session needs.
type Timeline struct {
	mu      sync.Mutex
	ring    []Event
	head    int
	count   int
	nextSeq int64
	evicted int64
}

// NewTimeline builds a timeline holding up to capacity events; capacity <= 0
// selects DefaultTimelineCap.
func NewTimeline(capacity int) *Timeline {
	if capacity <= 0 {
		capacity = DefaultTimelineCap
	}
	return &Timeline{ring: make([]Event, capacity)}
}

// Append records one event, stamping its sequence number. Safe on a nil
// receiver (no-op) and from any goroutine.
func (t *Timeline) Append(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	e.Seq = t.nextSeq
	t.nextSeq++
	if t.count == len(t.ring) {
		t.ring[t.head] = e
		t.head = (t.head + 1) % len(t.ring)
		t.evicted++
	} else {
		t.ring[(t.head+t.count)%len(t.ring)] = e
		t.count++
	}
	t.mu.Unlock()
}

// Events snapshots the ring in append order. A nil timeline yields nil.
func (t *Timeline) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.count)
	for i := 0; i < t.count; i++ {
		out[i] = t.ring[(t.head+i)%len(t.ring)]
	}
	return out
}

// Evicted reports how many events the ring has dropped to stay bounded.
func (t *Timeline) Evicted() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}
