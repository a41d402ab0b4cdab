package engine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Addr is a transport endpoint of a fragment instance.
type Addr struct {
	Node    simnet.NodeID
	Service string
}

// queueEntry is one received tuple awaiting processing.
type queueEntry struct {
	producer int
	seq      int64
	bucket   int32
	tuple    relation.Tuple
}

// streamState tracks the checkpoint/acknowledgement protocol for one
// producer→consumer stream (paper §3.1, Response): the producer inserts
// checkpoints into the data flow and keeps every tuple in its recovery log
// until the consumer acknowledges the checkpoint, meaning the interval's
// tuples "have finished processing and are not needed any more".
type streamState struct {
	// outstanding tracks received-but-unprocessed sequence numbers; its
	// front is the stream's low-water mark.
	outstanding seqWindow
	// discarded holds sequence numbers removed by a retrospective recall;
	// checkpoints covering them are never acknowledged, so the producer
	// keeps (or explicitly migrates) those log entries.
	discarded map[int64]bool
	// pending are checkpoint sequences awaiting acknowledgement, ascending.
	pending []int64
	// eosSeen makes end-of-stream idempotent: a detach after a real EOS
	// (or a duplicate EOS) must not double-count towards termination.
	eosSeen bool
	// detached marks a stream whose producer instance died; no further
	// data or acks flow on it. Queued tuples stay valid — they derive
	// from inputs the dead instance had acknowledged before dying.
	detached bool
	// maxProcessed / lastAcked drive fault-tolerant acknowledgement:
	// instead of waiting for producer-inserted checkpoints, the consumer
	// acknowledges every processed prefix at each batch boundary, inside
	// the commit section that also flushes the outputs derived from it.
	maxProcessed int64
	lastAcked    int64
}

// Consumer is the receiving half of an exchange: a queue of tuples arriving
// from the producer instances of an upstream fragment, exposed to the local
// operator tree as an Iterator leaf. Its queue is unbounded, matching the
// paper's configuration where "the incoming queues within exchanges can fit
// the complete dataset".
type Consumer struct {
	Exchange string
	// ConsumerIdx is this instance's index within the consuming fragment.
	ConsumerIdx int
	// Producers addresses the upstream instances, for acknowledgements.
	Producers []Addr
	// Stateful suppresses acknowledgements: build-side tuples constitute
	// operator state and must stay in the producers' recovery logs.
	Stateful bool

	gate *flowGate
	tr   transport.Transport
	node simnet.NodeID

	// Guarded by gate.mu.
	queue    seqQueue[queueEntry]
	eos      int
	streams  []*streamState
	consumed int64
	waitMs   float64
	closed   bool

	// self is the handle the consumer's own NextBatch pops through when it
	// is the leaf of the compiled operator tree; workers counts the worker
	// handles NewWorker gave out that have not closed yet.
	self    ConsumerWorker
	workers atomic.Int32

	obsConsumed *obs.Counter

	// stateTarget receives replayed state tuples (hash-join build side).
	stateTarget StateTarget

	// ft enables eager processed-prefix acknowledgements; ftCommit runs
	// them (with the matching output flush) in a node commit section. See
	// SetFaultTolerant.
	ft       bool
	ftCommit func(acks []ackItem)
}

// newConsumer wires a consumer; the fragment runtime constructs these while
// compiling KConsume specs.
func newConsumer(exchange string, consumerIdx int, producers []Addr, stateful bool,
	gate *flowGate, tr transport.Transport, node simnet.NodeID) *Consumer {
	c := &Consumer{
		Exchange:    exchange,
		ConsumerIdx: consumerIdx,
		Producers:   producers,
		Stateful:    stateful,
		gate:        gate,
		tr:          tr,
		node:        node,
		streams:     make([]*streamState, len(producers)),
		obsConsumed: obs.Default().Counter(obs.Label(obs.MExchangeTuplesConsumed, "exchange", exchange)),
	}
	for i := range c.streams {
		c.streams[i] = &streamState{discarded: make(map[int64]bool)}
	}
	c.self.c = c
	return c
}

// SetStateTarget registers the stateful operator absorbing replayed state.
func (c *Consumer) SetStateTarget(t StateTarget) { c.stateTarget = t }

// SetFaultTolerant switches the consumer to elastic-recovery
// acknowledgement (set once by the fragment runtime before the driver
// starts): at every batch boundary the consumer acknowledges its whole
// processed prefix per stream, and commit delivers those acks — paired
// with the flush of the outputs derived from them — inside one
// crash-atomic node commit section. An input is therefore acknowledged if
// and only if its effects are durably downstream, which makes the
// producer-side recovery log of a dead instance exactly the set of tuples
// that must be replayed onto survivors.
func (c *Consumer) SetFaultTolerant(commit func(acks []ackItem)) {
	c.ft = true
	c.ftCommit = commit
}

// Open implements Iterator.
func (c *Consumer) Open(ctx *ExecContext) error { return c.self.Open(ctx) }

// NextBatch implements Iterator: it pops through the consumer's own handle
// (see pop).
func (c *Consumer) NextBatch(dst *relation.Batch) (int, error) { return c.pop(&c.self, dst) }

// pop is the one dequeue loop, for the consumer's own handle and for every
// worker handle alike. It marks w's previous batch processed, then blocks
// until tuples arrive, every producer has closed the exchange, or the
// consumer is closed, and pops up to dst.Cap() queued tuples under a single
// gate-lock acquisition. So between two pops exactly one batch per handle is
// in flight: the flow gate's quiesce waits for it, and checkpoint
// acknowledgements fire only after it has been processed.
func (c *Consumer) pop(w *ConsumerWorker, dst *relation.Batch) (int, error) {
	dst.Rewind()
	c.gate.mu.Lock()
	c.finishLocked(w)
	flushed := false
	for {
		if c.queue.len() > 0 && !c.gate.paused {
			n := c.popLocked(&w.pending, dst)
			c.gate.mu.Unlock()
			c.obsConsumed.Add(int64(n))
			return n, nil
		}
		if c.closed || (c.eos == len(c.Producers) && c.queue.len() == 0 && !c.gate.paused) {
			c.gate.mu.Unlock()
			return 0, nil
		}
		if !flushed {
			// About to block: pay the handle's outstanding modelled work
			// first so the measured wait reflects genuine starvation, then
			// recheck. A meter is goroutine-confined, so each handle flushes
			// its own driver's.
			flushed = true
			c.gate.mu.Unlock()
			w.ctx.Meter.Flush()
			c.gate.mu.Lock()
			continue
		}
		start := w.ctx.Clock.NowMs()
		c.gate.cond.Wait()
		c.waitMs += w.ctx.Clock.NowMs() - start
	}
}

// popLocked pops up to dst.Cap() queued entries into dst, recording them in
// *pending and marking them in flight. Caller holds gate.mu and has checked
// that the queue is non-empty and the gate unpaused.
func (c *Consumer) popLocked(pending *[]queueEntry, dst *relation.Batch) int {
	n := c.queue.len()
	if cp := dst.Cap(); n > cp {
		n = cp
	}
	for i := 0; i < n; i++ {
		e := c.queue.popFront()
		*pending = append(*pending, e)
		dst.Append(e.tuple)
	}
	c.gate.inflight += n
	c.consumed += int64(n)
	return n
}

// ackItem is one checkpoint acknowledgement to transmit: everything at or
// below the checkpoint is processed, except the listed recalled sequences.
type ackItem struct {
	producer   int
	checkpoint int64
	except     []int64
}

// finishEntriesLocked marks entries processed, releasing the flow gate, and
// returns the checkpoint acks that became complete. The caller must send
// them only after dropping gate.mu: transmission sleeps, and the ack
// handler may park on the producer's flow barrier.
func (c *Consumer) finishEntriesLocked(entries []queueEntry) []ackItem {
	for _, e := range entries {
		st := c.streams[e.producer]
		st.outstanding.finish(e.seq)
		if e.seq > st.maxProcessed {
			st.maxProcessed = e.seq
		}
		c.gate.inflight--
	}
	c.gate.cond.Broadcast()
	if c.ft {
		return c.ftAckableLocked()
	}
	return c.ackableLocked()
}

// ftAckableLocked emits one ack per stream whose processed prefix advanced:
// the checkpoint is the highest processed sequence, with every discarded
// sequence at or below it re-listed as exempt (discards are released by the
// resend step, never by acks). Per-stream delivery and serial processing
// are in sequence order, so "maxProcessed" is equivalent to "all below it
// processed or discarded".
func (c *Consumer) ftAckableLocked() []ackItem {
	if c.Stateful {
		return nil
	}
	var acks []ackItem
	for p, st := range c.streams {
		if st.detached || st.maxProcessed <= st.lastAcked {
			continue
		}
		var except []int64
		for s := range st.discarded {
			if s <= st.maxProcessed {
				except = append(except, s)
			}
		}
		acks = append(acks, ackItem{producer: p, checkpoint: st.maxProcessed, except: except})
		st.lastAcked = st.maxProcessed
	}
	return acks
}

// finishLocked marks w's popped entries processed, releasing the gate and
// acknowledging completed checkpoints — through the commit section when
// fault-tolerant. Caller holds gate.mu; it is dropped while acks are sent,
// because transmission sleeps and may park on a paused producer's barrier.
func (c *Consumer) finishLocked(w *ConsumerWorker) {
	if len(w.pending) == 0 {
		return
	}
	acks := c.finishEntriesLocked(w.pending)
	w.pending = w.pending[:0]
	if len(acks) == 0 {
		return
	}
	c.gate.mu.Unlock()
	if c.ft && c.ftCommit != nil {
		c.ftCommit(acks)
	} else {
		for _, a := range acks {
			c.sendAck(a)
		}
	}
	c.gate.mu.Lock()
}

// ConsumerWorker is one driver's handle on a Consumer, and the exchange leaf
// of that driver's operator chain: the tuples it popped stay in flight — and
// the checkpoint acks they complete unsent — until its next pop or Finish,
// so the flow gate's quiesce waits on every driver's current batch and no
// driver can finish another's. The Consumer pops through a handle of its
// own; each worker chain of the morsel pool holds one from NewWorker.
type ConsumerWorker struct {
	c       *Consumer
	ctx     *ExecContext
	pending []queueEntry // guarded by c.gate.mu
	closed  bool
}

// NewWorker returns a fresh worker handle. The consumer stays open until
// every handle it gave out has closed.
func (c *Consumer) NewWorker() *ConsumerWorker {
	c.workers.Add(1)
	return &ConsumerWorker{c: c}
}

// Open implements Iterator: the handle waits on ctx's clock and flushes its
// meter before parking.
func (w *ConsumerWorker) Open(ctx *ExecContext) error {
	w.ctx = ctx
	return nil
}

// NextBatch implements Iterator.
func (w *ConsumerWorker) NextBatch(dst *relation.Batch) (int, error) { return w.c.pop(w, dst) }

// Finish marks the handle's popped entries processed. Call with no locks
// held: completed checkpoint acks are transmitted inline.
func (w *ConsumerWorker) Finish() {
	w.c.gate.mu.Lock()
	w.c.finishLocked(w)
	w.c.gate.mu.Unlock()
}

// Close implements Iterator: it finishes the handle's batch, and the last
// worker handle to close closes the consumer — closing it on the first
// would end the input of siblings still reading.
func (w *ConsumerWorker) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.Finish()
	if w.c.workers.Add(-1) > 0 {
		return nil
	}
	return w.c.Close()
}

// ackableLocked pops every pending checkpoint that is complete: no sequence
// at or below it is still outstanding. Sequences discarded by a recall
// count as satisfied but are reported in the ack's exclusion list so the
// producer keeps their log entries for the resend step.
func (c *Consumer) ackableLocked() []ackItem {
	if c.Stateful || c.ft {
		// Fault-tolerant consumers acknowledge processed prefixes at batch
		// boundaries instead; checkpoint arrival alone must not trigger an
		// ack outside a commit section.
		return nil
	}
	var acks []ackItem
	for p, st := range c.streams {
		for len(st.pending) > 0 {
			ck := st.pending[0]
			if st.outstanding.anyAtOrBelow(ck) {
				break
			}
			var except []int64
			for s := range st.discarded {
				if s <= ck {
					except = append(except, s)
				}
			}
			acks = append(acks, ackItem{producer: p, checkpoint: ck, except: except})
			st.pending = st.pending[1:]
		}
	}
	return acks
}

func (c *Consumer) sendAck(a ackItem) {
	// Snapshot the address under the gate lock: a live join may grow the
	// Producers slice concurrently.
	c.gate.mu.Lock()
	addr := c.Producers[a.producer]
	c.gate.mu.Unlock()
	msg := &transport.Message{
		Kind:        transport.KindAck,
		Exchange:    c.Exchange,
		ProducerIdx: a.producer,
		ConsumerIdx: c.ConsumerIdx,
		Checkpoint:  a.checkpoint,
		Except:      a.except,
	}
	// A failed ack only delays log release; it cannot corrupt the query.
	_, _ = c.tr.Send(c.node, addr.Node, addr.Service, msg)
}

// Close implements Iterator: it releases any blocked NextBatch.
func (c *Consumer) Close() error {
	c.gate.locked(func() {
		c.finishLocked(&c.self)
		c.closed = true
		c.gate.cond.Broadcast()
	})
	return nil
}

// Deliver ingests a data or EOS message from the transport. Replay buffers
// go straight to the registered state target; normal buffers join the
// queue.
func (c *Consumer) Deliver(msg *transport.Message) error {
	switch msg.Kind {
	case transport.KindEOS:
		c.gate.locked(func() {
			if msg.ProducerIdx >= 0 && msg.ProducerIdx < len(c.streams) {
				st := c.streams[msg.ProducerIdx]
				if st.eosSeen {
					return
				}
				st.eosSeen = true
			}
			c.eos++
			c.gate.cond.Broadcast()
		})
		return nil
	case transport.KindData:
		if msg.Replay {
			if c.stateTarget == nil {
				return fmt.Errorf("engine: replay buffer on exchange %s with no state target", c.Exchange)
			}
			c.stateTarget.InsertState(msg.Tuples)
			return nil
		}
		if msg.ProducerIdx < 0 || msg.ProducerIdx >= len(c.streams) {
			return fmt.Errorf("engine: bad producer index %d on exchange %s", msg.ProducerIdx, c.Exchange)
		}
		var acks []ackItem
		c.gate.locked(func() {
			st := c.streams[msg.ProducerIdx]
			for i, t := range msg.Tuples {
				seq := msg.StartSeq + int64(i)
				var bucket int32 = -1
				if msg.Buckets != nil {
					bucket = msg.Buckets[i]
				}
				c.queue.push(queueEntry{
					producer: msg.ProducerIdx,
					seq:      seq,
					bucket:   bucket,
					tuple:    t,
				})
				st.outstanding.add(seq)
			}
			if msg.Checkpoint > 0 {
				// Checkpoints arrive ascending, so the ordered insert is
				// an append unless a stream was reordered.
				i := len(st.pending)
				st.pending = append(st.pending, msg.Checkpoint)
				for ; i > 0 && st.pending[i-1] > msg.Checkpoint; i-- {
					st.pending[i] = st.pending[i-1]
				}
				st.pending[i] = msg.Checkpoint
				// A checkpoint-only message may close an interval whose
				// tuples were all processed already.
				acks = c.ackableLocked()
			}
			c.gate.cond.Broadcast()
		})
		// Acks triggered by delivery are sent asynchronously: the in-proc
		// transport runs Deliver on the producer's own goroutine, which may
		// hold the producer lock the ack handler needs.
		for _, a := range acks {
			go c.sendAck(a)
		}
		return nil
	default:
		return fmt.Errorf("engine: consumer cannot handle %v message", msg.Kind)
	}
}

// Discard implements the consumer half of retrospective redistribution
// (R1): it removes still-unprocessed queued tuples — all of them, or only
// those in the given buckets — and reports their sequence numbers per
// producer so the producers can re-route exactly those tuples from their
// recovery logs. It must run inside the fragment's quiesce window.
func (c *Consumer) discardLocked(buckets []int32) map[int][]int64 {
	var filter map[int32]bool
	if buckets != nil {
		filter = make(map[int32]bool, len(buckets))
		for _, b := range buckets {
			filter[b] = true
		}
	}
	report := make(map[int][]int64)
	// One rotation of the queue: every entry is popped, and the kept ones
	// rejoin at the back in their original order.
	for n := c.queue.len(); n > 0; n-- {
		e := c.queue.popFront()
		// Tuples from a detached (dead) producer are never discarded: its
		// recovery log is gone, so no resend could ever restore them.
		if (filter == nil || filter[e.bucket]) && !c.streams[e.producer].detached {
			st := c.streams[e.producer]
			st.outstanding.finish(e.seq)
			st.discarded[e.seq] = true
			report[e.producer] = append(report[e.producer], e.seq)
		} else {
			c.queue.push(e)
		}
	}
	return report
}

// DetachProducer closes a stream whose producer instance died without
// sending EOS: termination no longer waits on it, and no acks are
// addressed to it. Queued tuples from the dead producer are kept — they
// derive from inputs the dead instance had acknowledged upstream, so
// dropping them would lose rows; replayed substitutes never exist for them
// because acknowledged entries have left the upstream recovery logs.
func (c *Consumer) DetachProducer(producer int) error {
	var err error
	c.gate.locked(func() {
		if producer < 0 || producer >= len(c.streams) {
			err = fmt.Errorf("engine: detach of unknown producer %d on exchange %s", producer, c.Exchange)
			return
		}
		st := c.streams[producer]
		st.detached = true
		if !st.eosSeen {
			st.eosSeen = true
			c.eos++
		}
		c.gate.cond.Broadcast()
	})
	return err
}

// AddProducer extends the exchange with a newly joined upstream instance
// (live join): termination now additionally waits for its EOS, and its
// stream starts with fresh checkpoint state.
func (c *Consumer) AddProducer(addr Addr) {
	c.gate.locked(func() {
		c.Producers = append(c.Producers, addr)
		c.streams = append(c.streams, &streamState{discarded: make(map[int64]bool)})
	})
}

// Stats reports consumption counters for monitoring (M1 wait/selectivity).
func (c *Consumer) Stats() (consumed int64, waitMs float64, queued int) {
	c.gate.mu.Lock()
	defer c.gate.mu.Unlock()
	return c.consumed, c.waitMs, c.queue.len()
}
