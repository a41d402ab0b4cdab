// Package transport carries data buffers, checkpoint acknowledgements, and
// adaptivity control messages between query evaluation services. Two
// implementations exist: InProc routes messages inside one process over the
// simulated network (charging modelled link costs, which is how the paper's
// SOAP/HTTP buffer shipping is reproduced), and TCP carries the same
// messages between real processes for multi-process deployments.
package transport

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/relation"
	"repro/internal/simnet"
)

// Kind enumerates message kinds.
type Kind uint8

// Message kinds.
const (
	// KindData carries a buffer of tuples from an exchange producer
	// instance to a consumer instance.
	KindData Kind = iota + 1
	// KindEOS signals that a producer instance has finished its normal
	// data flow to a consumer instance.
	KindEOS
	// KindAck carries a checkpoint acknowledgement from consumer back to
	// producer: every tuple up to the checkpoint has been processed (or
	// discarded under a recall) and is no longer needed.
	KindAck
	// KindControl carries an adaptivity control request (see Ctrl).
	KindControl
	// KindReply carries the response to a control request.
	KindReply
	// KindDeploy asks a remote evaluation service to instantiate its
	// fragment instances for a query (multi-process deployments; the SQL
	// travels in Query and the evaluator derives the identical plan
	// deterministically from the shared manifest).
	KindDeploy
	// KindTeardown releases a remote evaluation service's runtimes.
	KindTeardown
	// KindMonitor forwards one raw monitoring event from a remote engine
	// to the node hosting its MonitoringEventDetector.
	KindMonitor
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindEOS:
		return "eos"
	case KindAck:
		return "ack"
	case KindControl:
		return "control"
	case KindReply:
		return "reply"
	case KindDeploy:
		return "deploy"
	case KindTeardown:
		return "teardown"
	case KindMonitor:
		return "monitor"
	default:
		return "invalid"
	}
}

// Message is the single wire unit. Fields are populated according to Kind;
// unneeded fields stay zero.
type Message struct {
	Kind Kind
	// Exchange identifies the exchange the message belongs to.
	Exchange string
	// ProducerIdx and ConsumerIdx identify the instance endpoints of the
	// stream within the exchange.
	ProducerIdx int
	ConsumerIdx int
	// Epoch is the distribution-policy epoch the message was produced
	// under; bumped by every adaptation.
	Epoch int

	// KindData: Tuples carry StartSeq..StartSeq+len-1 (per-stream
	// sequence numbers); Buckets, when present, carries each tuple's
	// routing bucket (hash exchanges), one per tuple. Replay marks
	// retransmissions that recreate operator state rather than normal
	// flow. Checkpoint, when >= 0, closes the checkpoint interval ending at
	// that sequence.
	//
	// The receiver keeps Tuples and Buckets without a copy. Over TCP they
	// are decoded afresh for every message. In process they are the
	// sender's buffer: an unlogged stream's comes with Slots, which the
	// receiver hands back; a logged stream's stays in the producer's
	// recovery log, which reuses it only once the receiver can no longer
	// read it (DESIGN.md, the exchange buffer lifetime rule).
	StartSeq   int64
	Tuples     []relation.Tuple
	Buckets    []int32
	Replay     bool
	Checkpoint int64
	// Slots, when set, owns the buffer Tuples lives in. Whoever reads the
	// tuples last calls ReleaseSlots exactly once: the receiver once it has
	// read or dropped every tuple, or the transport when it encoded the
	// message or failed before delivering it. Nobody reads Tuples after
	// that. Slots never travels on the wire.
	Slots Releaser

	// KindAck: Checkpoint is the acknowledged checkpoint sequence; Except
	// lists sequences at or below it that were discarded by a recall and
	// must NOT be released from the recovery log (they are migrated
	// explicitly by the resend step of the retrospective protocol).
	Except []int64

	// KindControl / KindReply.
	Ctrl *Ctrl

	// KindDeploy: the SQL text to plan and instantiate.
	Query string
	// KindMonitor: the forwarded raw event.
	Mon *Monitor
}

// Releaser takes back the buffer a data message's tuples live in.
type Releaser interface {
	Release()
}

// ReleaseSlots hands the message's tuple buffer back to its owner, if it
// has one, and forgets it, so a second call does nothing.
func (m *Message) ReleaseSlots() {
	if r := m.Slots; r != nil {
		m.Slots = nil
		r.Release()
	}
}

// Monitor is a raw self-monitoring event in transport form (M1 when IsM2 is
// false). The services layer converts between this and the engine's event
// types, keeping transport free of engine dependencies.
type Monitor struct {
	IsM2     bool
	Fragment string
	Instance int
	Node     simnet.NodeID
	// M1 payload.
	CostMs      float64
	WaitMs      float64
	Selectivity float64
	Produced    int64
	// M2 payload.
	ConsumerFragment string
	ConsumerInstance int
	ConsumerNode     simnet.NodeID
	SendCostMs       float64
	TupleCount       int
}

// WireSize approximates the message's on-the-wire size in bytes, used to
// charge bandwidth on the simulated network. The constant term stands in
// for the paper's SOAP/HTTP envelope.
func (m *Message) WireSize() int {
	const envelope = 64
	n := envelope
	for _, t := range m.Tuples {
		n += t.ByteSize()
	}
	n += 4 * len(m.Buckets)
	if m.Ctrl != nil {
		n += 96 + 8*len(m.Ctrl.Weights) + 4*len(m.Ctrl.BucketMap) + 4*len(m.Ctrl.Buckets) + 8*len(m.Ctrl.Seqs)
		for _, seqs := range m.Ctrl.DiscardedSeqs {
			n += 8 + 8*len(seqs)
		}
	}
	n += len(m.Query)
	if m.Mon != nil {
		n += 96
	}
	return n
}

// CtrlOp enumerates adaptivity control operations (paper §3.1, Response).
type CtrlOp uint8

// Control operations.
const (
	// CtrlPause stops an exchange producer from sending; it acknowledges
	// after flushing its current buffer.
	CtrlPause CtrlOp = iota + 1
	// CtrlResume restarts a paused producer.
	CtrlResume
	// CtrlSetWeights installs a new workload distribution vector W' on a
	// weighted-policy producer (prospective redistribution, R2).
	CtrlSetWeights
	// CtrlSetBucketMap installs a new bucket→owner map on a hash-policy
	// producer.
	CtrlSetBucketMap
	// CtrlDiscard asks a consumer instance to remove still-unprocessed
	// queued tuples (optionally restricted to the given buckets) and
	// report their sequence numbers per input stream, so the producers can
	// re-route exactly those tuples from their recovery logs
	// (retrospective redistribution, R1). With an empty Exchange the
	// discard covers EVERY input exchange of the instance in one atomic
	// step — essential for stateful fragments, where filtering the build
	// queue ahead of the probe queue would let probes run against state
	// that has been removed from the build flow but not yet replayed.
	CtrlDiscard
	// CtrlEvict asks a consumer instance to drop the operator state
	// (hash-join build buckets) for the given buckets; the state is
	// recreated at the new owners from recovery-log replay.
	CtrlEvict
	// CtrlReplay asks a producer to retransmit all logged tuples of the
	// given buckets, routed by the new bucket map, marked Replay.
	CtrlReplay
	// CtrlResend asks a producer to retransmit the listed sequence numbers
	// (previously discarded by consumers) under the current policy.
	CtrlResend
	// CtrlProgress asks a producer for its routed count and the
	// optimiser's cardinality estimate, for progress estimation.
	CtrlProgress
	// CtrlReplayLost asks a producer to re-route every logged-but-unacked
	// tuple of a dead consumer instance (Peer) onto the surviving
	// instances under the current policy, then detach that instance
	// (elastic failover of a stateless exchange).
	CtrlReplayLost
	// CtrlDetachConsumer asks a producer to stop addressing a dead
	// consumer instance (Peer): no further flushes, checkpoints, or EOS to
	// it. Used on stateful exchanges after CtrlReplay has migrated the
	// dead instance's buckets.
	CtrlDetachConsumer
	// CtrlDetach tells a consumer that producer instance Peer is dead and
	// will never send EOS; the stream is closed synthetically. Queued
	// tuples from the dead producer stay valid — they derive from inputs
	// the dead instance had acknowledged, so dropping them would lose
	// rows.
	CtrlDetach
	// CtrlAttach asks a producer to add a new consumer instance (live
	// join): PeerNode/PeerService address it, Weights is the extended
	// distribution vector including the newcomer.
	CtrlAttach
	// CtrlExpectProducer tells a consumer to expect data from a new
	// producer instance at PeerNode/PeerService (live join of the
	// upstream fragment).
	CtrlExpectProducer
	// CtrlPing is a liveness probe; the endpoint replies OK. Heartbeat
	// probing sends it one-way and relies on the transport-level
	// reachability error for failure detection.
	CtrlPing
)

// String names the operation.
func (o CtrlOp) String() string {
	switch o {
	case CtrlPause:
		return "pause"
	case CtrlResume:
		return "resume"
	case CtrlSetWeights:
		return "set-weights"
	case CtrlSetBucketMap:
		return "set-bucket-map"
	case CtrlDiscard:
		return "discard"
	case CtrlEvict:
		return "evict"
	case CtrlReplay:
		return "replay"
	case CtrlResend:
		return "resend"
	case CtrlProgress:
		return "progress"
	case CtrlReplayLost:
		return "replay-lost"
	case CtrlDetachConsumer:
		return "detach-consumer"
	case CtrlDetach:
		return "detach"
	case CtrlAttach:
		return "attach"
	case CtrlExpectProducer:
		return "expect-producer"
	case CtrlPing:
		return "ping"
	default:
		return "invalid"
	}
}

// Ctrl is the payload of control requests and replies.
type Ctrl struct {
	Op        CtrlOp
	RequestID uint64
	// ReplyTo addresses the reply.
	ReplyTo      simnet.NodeID
	ReplyService string

	// Request payload (by Op).
	Weights   []float64
	BucketMap []int32
	Buckets   []int32
	Seqs      []int64
	Epoch     int
	// Peer is the instance index the membership operation targets
	// (CtrlReplayLost, CtrlDetachConsumer, CtrlDetach); PeerNode and
	// PeerService address a newly joined instance (CtrlAttach,
	// CtrlExpectProducer).
	Peer        int
	PeerNode    simnet.NodeID
	PeerService string

	// Reply payload.
	OK  bool
	Err string
	// CtrlProgress reply.
	Routed, Est int64
	// CtrlDiscard reply: discarded sequence numbers per input stream,
	// keyed by StreamKey(exchange, producerIdx).
	DiscardedSeqs map[string][]int64
}

// StreamKey names one producer→consumer stream in discard reports.
func StreamKey(exchange string, producerIdx int) string {
	return fmt.Sprintf("%s/%d", exchange, producerIdx)
}

// ParseStreamKey splits a StreamKey back into its parts.
func ParseStreamKey(key string) (exchange string, producerIdx int, err error) {
	i := strings.LastIndex(key, "/")
	if i < 0 {
		return "", 0, fmt.Errorf("transport: bad stream key %q", key)
	}
	idx, err := strconv.Atoi(key[i+1:])
	if err != nil {
		return "", 0, fmt.Errorf("transport: bad stream key %q", key)
	}
	return key[:i], idx, nil
}

// NodeDownError reports that a message could not be delivered because a
// machine has crash-stopped or become unreachable. It is the typed signal
// the elastic recovery path keys on: fault-tolerant producers treat it as
// "peer died" rather than a query-fatal transport fault, and the session's
// recovery manager uses Node to decide which evaluator to fail over.
type NodeDownError struct {
	Node simnet.NodeID
}

// Error implements error.
func (e *NodeDownError) Error() string {
	return fmt.Sprintf("transport: node %q is down", e.Node)
}

// Is lets errors.Is(err, ErrNodeDown) match any NodeDownError.
func (e *NodeDownError) Is(target error) bool { return target == ErrNodeDown }

// ErrNodeDown is the errors.Is target for NodeDownError.
var ErrNodeDown = errors.New("transport: node down")

// Handler consumes messages delivered to a registered service. Handlers
// must be quick (enqueue and return): they run on the sender's goroutine in
// the in-process transport and on the connection reader in the TCP one.
type Handler func(from simnet.NodeID, msg *Message)

// Transport moves messages between (node, service) endpoints.
type Transport interface {
	// Register installs a handler for a service on a node. Registering the
	// same endpoint twice replaces the handler.
	Register(node simnet.NodeID, service string, h Handler)
	// Unregister removes an endpoint; pending sends to it fail.
	Unregister(node simnet.NodeID, service string)
	// Send delivers msg from one node to a service on another, returning
	// the modelled transmission cost in paper milliseconds.
	Send(from, to simnet.NodeID, service string, msg *Message) (float64, error)
}
