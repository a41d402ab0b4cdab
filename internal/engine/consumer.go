package engine

import (
	"fmt"
	"slices"
	"sync"
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

// queueBuf is one received buffer in the consumer's queue, read in place:
// its tuples and buckets (nil: the stream routes by none), the owner of an
// unlogged buffer's slots, the next tuple to pop, and the buffer's ordinal
// in its stream's window.
type queueBuf struct {
	first   int64
	tuples  []relation.Tuple
	buckets []int32
	slots   transport.Releaser
	deadSet
	producer int32
	pos      int32
	ord      int64
}

// bucket returns tuple i's routing bucket, or -1 if its stream routes by
// none. Only a live, unpopped tuple's slots may be read (see Deliver).
func (e *queueBuf) bucket(i int) int32 {
	if poisoned(e.tuples[i]) {
		panic(fmt.Sprintf("engine: consumer read released slot %d of the buffer at seq %d", i, e.first))
	}
	if len(e.buckets) == 0 {
		return -1
	}
	return e.buckets[i]
}

// bufQueue is the consumer's queue: one entry per received buffer, in
// arrival order.
type bufQueue struct {
	q seqQueue[queueBuf]
	n int // tuples neither popped nor discarded
}

func (b *bufQueue) len() int { return b.n }

// span is a run of consecutive sequences one pop took from one buffer.
type span struct {
	producer, n int32
	first, ord  int64
}

// streamState tracks the checkpoint/acknowledgement protocol for one
// producer→consumer stream (paper §3.1, Response): the producer inserts
// checkpoints into the data flow and keeps every tuple in its recovery log
// until the consumer acknowledges the checkpoint, meaning the interval's
// tuples "have finished processing and are not needed any more".
type streamState struct {
	// outstanding tracks received buffers with unprocessed tuples; its
	// front is the stream's low-water mark.
	outstanding seqWindow
	// discarded holds, ascending, the sequences a recall removed; an ack
	// lists those at or below its checkpoint so the producer keeps them for
	// the resend. A recall replaces the slice: acks in flight share it.
	discarded []int64
	// pending are checkpoint sequences awaiting acknowledgement, ascending.
	pending seqQueue[int64]
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
	queue    bufQueue
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

	// stateTarget receives replayed state tuples (the stateful operator
	// above the consume leaf), through the gate's operation queue.
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
		c.streams[i] = &streamState{}
	}
	c.self.c = c
	return c
}

// SetStateTarget registers the stateful operator absorbing replayed state.
func (c *Consumer) SetStateTarget(t StateTarget) { c.stateTarget = t }

// SetFaultTolerant switches the consumer to elastic-recovery
// acknowledgement (set once by the fragment runtime before the driver
// starts): at every batch boundary it acknowledges its processed prefix per
// stream, and commit delivers those acks with the flush of the outputs
// derived from them in one crash-atomic node commit section. So an input is
// acknowledged iff its effects are durably downstream, and a dead
// instance's upstream recovery log is exactly what survivors must replay.
func (c *Consumer) SetFaultTolerant(commit func(acks []ackItem)) {
	c.ft = true
	c.ftCommit = commit
}

// Open implements Iterator.
func (c *Consumer) Open(ctx *ExecContext) error { return c.self.Open(ctx) }

// NextBatch implements Iterator: it pops through the consumer's own handle
// (see pop).
func (c *Consumer) NextBatch(dst *relation.Batch) (int, error) { return c.pop(&c.self, dst) }

// pop is the one dequeue loop, for every handle. It marks w's previous
// batch processed, then blocks until tuples arrive, every producer has
// closed the exchange, or the consumer is closed, and pops up to dst.Cap()
// tuples under one gate-lock acquisition. So one batch per handle is in
// flight: the gate's quiesce waits for it, and acks follow its processing.
// Before it pops a tuple or reports end of stream it runs the instance's
// queued R1 state operations (see flowGate), so they reach the operator on
// its driver, between its batches, ahead of every tuple queued after them.
func (c *Consumer) pop(w *ConsumerWorker, dst *relation.Batch) (int, error) {
	dst.Rewind()
	c.gate.mu.Lock()
	c.finishLocked(w)
	flushed := false
	for {
		if len(c.gate.ops) > 0 {
			c.gate.runOpsLocked()
			continue
		}
		if c.queue.len() > 0 && !c.gate.paused {
			n := c.popLocked(w, dst)
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

// popLocked pops up to dst.Cap() queued tuples into dst, recording them as
// spans in w.pending and marking them in flight. Caller holds gate.mu and
// has checked that the queue is non-empty and the gate unpaused.
func (c *Consumer) popLocked(w *ConsumerWorker, dst *relation.Batch) int {
	n := min(c.queue.n, dst.Cap())
	for got := 0; got < n; {
		e := c.queue.q.front()
		for e.pos < e.n && got < n {
			if e.isDead(int(e.pos)) {
				e.pos++
				continue
			}
			k := int32(1) // a run of live tuples
			for e.pos+k < e.n && got+int(k) < n && !e.isDead(int(e.pos+k)) {
				k++
			}
			dst.AppendAll(e.tuples[e.pos : e.pos+k])
			w.pending = append(w.pending, span{producer: e.producer, n: k, first: e.first + int64(e.pos), ord: e.ord})
			e.pos += k
			got += int(k)
		}
		if e.pos == e.n {
			if e.slots != nil {
				e.slots.Release() // its last tuple is popped
			}
			c.queue.q.popFront()
		}
	}
	c.queue.n -= n
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

// finishSpansLocked marks spans processed, releasing the flow gate, and
// appends the checkpoint acks that became complete to acks. The caller must
// send them only after dropping gate.mu: transmission sleeps, and the ack
// handler may park on the producer's flow barrier.
func (c *Consumer) finishSpansLocked(spans []span, acks []ackItem) []ackItem {
	for _, s := range spans {
		st := c.streams[s.producer]
		st.outstanding.finish(s.ord, int(s.n))
		st.maxProcessed = max(st.maxProcessed, s.first+int64(s.n)-1)
		c.gate.inflight -= int(s.n)
	}
	c.gate.cond.Broadcast()
	if c.ft {
		return c.ftAckableLocked(acks)
	}
	return c.ackableLocked(acks)
}

// ftAckableLocked emits one ack per stream whose processed prefix advanced:
// the checkpoint is the highest processed sequence (delivery and serial
// processing are in sequence order, so all below it are processed or
// discarded), with the discarded ones at or below it re-listed as exempt.
func (c *Consumer) ftAckableLocked(acks []ackItem) []ackItem {
	if c.Stateful {
		return acks
	}
	for p, st := range c.streams {
		if st.detached || st.maxProcessed <= st.lastAcked {
			continue
		}
		acks = append(acks, ackItem{producer: p, checkpoint: st.maxProcessed, except: upTo(st.discarded, st.maxProcessed)})
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
	acks := c.finishSpansLocked(w.pending, w.acks[:0])
	w.pending, w.acks = w.pending[:0], acks
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
// of its operator chain: the tuples it popped stay in flight, and the acks
// they complete unsent, until its next pop or Finish, so the gate's quiesce
// waits on every driver's batch. The Consumer pops through a handle of its
// own; each worker chain of the morsel pool holds one from NewWorker.
type ConsumerWorker struct {
	c       *Consumer
	ctx     *ExecContext
	pending []span    // guarded by c.gate.mu
	acks    []ackItem // the acks its last finish completed, reused
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
func (c *Consumer) ackableLocked(acks []ackItem) []ackItem {
	if c.Stateful || c.ft {
		// Fault-tolerant consumers acknowledge processed prefixes at batch
		// boundaries instead; checkpoint arrival alone must not trigger an
		// ack outside a commit section.
		return acks
	}
	for p, st := range c.streams {
		for st.pending.len() > 0 {
			ck := *st.pending.front()
			if st.outstanding.anyAtOrBelow(ck) {
				break
			}
			acks = append(acks, ackItem{producer: p, checkpoint: ck, except: upTo(st.discarded, ck)})
			st.pending.popFront()
		}
	}
	return acks
}

// ackPool recycles acknowledgement messages: both transports are done with
// a message once Send returns.
var ackPool = sync.Pool{New: func() any { return new(transport.Message) }}

func (c *Consumer) sendAck(a ackItem) {
	// Snapshot the address under the gate lock: a live join may grow the
	// Producers slice concurrently.
	c.gate.mu.Lock()
	addr := c.Producers[a.producer]
	c.gate.mu.Unlock()
	msg := ackPool.Get().(*transport.Message)
	*msg = transport.Message{
		Kind:        transport.KindAck,
		Exchange:    c.Exchange,
		ProducerIdx: a.producer,
		ConsumerIdx: c.ConsumerIdx,
		Checkpoint:  a.checkpoint,
		Except:      a.except,
	}
	// A failed ack only delays log release; it cannot corrupt the query.
	_, _ = c.tr.Send(c.node, addr.Node, addr.Service, msg)
	*msg = transport.Message{}
	ackPool.Put(msg)
}

// Close implements Iterator: it releases any blocked NextBatch and drops
// the queued unlogged buffers, which nothing can recall, releasing their
// slots.
func (c *Consumer) Close() error {
	c.gate.locked(func() {
		c.finishLocked(&c.self)
		c.closed = true
		for c.queue.q.len() > 0 && c.queue.q.front().slots != nil {
			e := c.queue.q.front()
			for i := e.pos; i < e.n; i++ {
				if !e.isDead(int(i)) {
					c.queue.n--
				}
			}
			e.slots.Release()
			c.queue.q.popFront()
		}
		c.gate.cond.Broadcast()
	})
	return nil
}

// Deliver ingests a data or EOS message from the transport. A replay buffer
// is posted to the gate as an insert into the registered state target,
// which the driver applies at its next pop; normal buffers join the queue
// as they are, without a copy: the entry reads msg.Tuples and msg.Buckets in
// place. An unlogged buffer (msg.Slots set) is the consumer's from then on:
// it releases the slots once it has popped the last tuple, or when it drops
// the buffer (empty, refused, delivered after Close, or queued at Close).
// A logged stream's buffer is, in process, the producer's recovery-log
// slots. That is safe by the exchange's lifetime rule:
//   - a sent buffer's slots are immutable;
//   - a producer's slotStore rewinds or recycles a chunk only after every
//     buffer in it was released: acknowledged at or below a checkpoint, or
//     taken by a resend; a stateful log never recycles, since its replay
//     takes tuples the consumer may still hold queued;
//   - a consumer acknowledges a checkpoint only after every tuple at or
//     below it was popped or discarded.
//
// So a consumer that reads only live, unpopped slots never reads a recycled
// one. A queued replay reads msg.Tuples in place after Deliver has returned:
// it came from a stateful log, so its slots are never recycled. A data
// message must carry one bucket per tuple or none.
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
		if len(msg.Buckets) != 0 && len(msg.Buckets) != len(msg.Tuples) {
			msg.ReleaseSlots()
			return fmt.Errorf("engine: %d buckets for %d tuples on exchange %s", len(msg.Buckets), len(msg.Tuples), c.Exchange)
		}
		if msg.Replay {
			target, ts := c.stateTarget, msg.Tuples
			if target == nil {
				msg.ReleaseSlots()
				return fmt.Errorf("engine: replay buffer on exchange %s with no state target", c.Exchange)
			}
			c.gate.post(func() { target.InsertState(ts) })
			return nil
		}
		if msg.ProducerIdx < 0 || msg.ProducerIdx >= len(c.streams) {
			msg.ReleaseSlots()
			return fmt.Errorf("engine: bad producer index %d on exchange %s", msg.ProducerIdx, c.Exchange)
		}
		var acks []ackItem
		c.gate.mu.Lock()
		st := c.streams[msg.ProducerIdx]
		slots := msg.Slots
		msg.Slots = nil
		switch n := len(msg.Tuples); {
		case slots != nil && (n == 0 || c.closed):
			slots.Release() // an empty buffer, or one nothing will pop
		case n > 0:
			c.queue.q.push(queueBuf{
				first:    msg.StartSeq,
				tuples:   msg.Tuples,
				buckets:  msg.Buckets,
				slots:    slots,
				deadSet:  deadSet{n: int32(n), live: int32(n)},
				producer: int32(msg.ProducerIdx),
				ord:      st.outstanding.add(msg.StartSeq, n),
			})
			c.queue.n += n
		}
		if msg.Checkpoint > 0 {
			// A stream delivers in order, so checkpoints arrive ascending. A
			// checkpoint-only message may close an interval whose tuples
			// were all processed already.
			st.pending.push(msg.Checkpoint)
			acks = c.ackableLocked(nil)
		}
		c.gate.cond.Broadcast()
		c.gate.mu.Unlock()
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
	for ord := c.queue.q.base; ord < c.queue.q.next(); ord++ {
		e := c.queue.q.at(ord)
		st := c.streams[e.producer]
		if st.detached {
			// Tuples from a detached (dead) producer are never discarded:
			// its recovery log is gone, so no resend could ever restore
			// them.
			continue
		}
		k := 0
		for i := int(e.pos); i < int(e.n); i++ {
			// A dead tuple's slot may already be recycled: read nothing of it.
			if !e.isDead(i) && (filter == nil || filter[e.bucket(i)]) && e.kill(i) {
				report[int(e.producer)] = append(report[int(e.producer)], e.first+int64(i))
				k++
			}
		}
		if k > 0 {
			st.outstanding.finish(e.ord, k)
			c.queue.n -= k
		}
	}
	for p, seqs := range report {
		st := c.streams[p]
		st.discarded = append(slices.Clip(st.discarded), seqs...)
		slices.Sort(st.discarded)
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
		c.streams = append(c.streams, &streamState{})
	})
}

// Stats reports consumption counters for monitoring (M1 wait/selectivity).
func (c *Consumer) Stats() (consumed int64, waitMs float64, queued int) {
	c.gate.mu.Lock()
	defer c.gate.mu.Unlock()
	return c.consumed, c.waitMs, c.queue.n
}
