package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// DefaultBufferTuples is how many tuples a producer batches per buffer; the
// paper ships tuple blocks over SOAP/HTTP and reports one M2 event per
// buffer sent.
const DefaultBufferTuples = 50

// DefaultCheckpointEvery is the checkpoint interval per consumer stream, in
// tuples (paper §3.1: producers "insert checkpoint tuples into the set of
// data tuples they send").
const DefaultCheckpointEvery = 50

// producerShard is the per-consumer slice of the producer's mutable state:
// the recovery log (which owns the stream's sequence counter, and whose
// tail is the open buffer) and the checkpoint interval position. An
// unlogged producer's shard logs nothing: its log only counts sequences,
// and out is the open buffer. Concurrent senders routing to different
// consumers touch disjoint shards and never contend; everything that must
// observe a consistent cross-shard picture (Pause, Replay, Resend, Close)
// goes through the flow barrier instead.
type producerShard struct {
	mu        sync.Mutex
	log       recoveryLog
	out       *sendBuf
	sinceCkpt int
	// dead marks the consumer instance as crash-stopped or detached:
	// flushes drop the buffer (the log keeps the entries for failover
	// replay), and checkpoints/EOS are not addressed to it.
	dead bool
	// msg is the data-message header flushes reuse. Both transports are
	// done with the header once Send returns: the in-proc consumer keeps
	// the tuple slice, never the message, and TCP encodes the tuples into
	// its own frame.
	msg transport.Message
}

// flowBarrier coordinates the producer's data plane (SendBatch, from one
// driver or many morsel workers) with its control plane. Data-plane calls
// are blocked while paused or while a control operation holds the barrier
// exclusively; acks only by exclusive sections, since a downstream quiesce
// may wait on a worker whose ack is in flight. Exclusive acquisition waits
// for every active call to drain, so no ack deletes a log entry between a
// replay's snapshot and its migration, and no sender slips a tuple into a
// half-flushed picture.
type flowBarrier struct {
	mu        sync.Mutex
	cond      *sync.Cond
	active    int
	paused    bool
	exclusive bool
	cancelErr error
}

func (b *flowBarrier) init() { b.cond = sync.NewCond(&b.mu) }

// enter admits a call, blocking while exclusive; a data-plane call also
// blocks while paused and fails once canceled, an acknowledgement (ack) does
// neither. The caller's meter is flushed before parking so the modelled cost
// of already processed tuples is fully paid (mirroring the consumer side).
func (b *flowBarrier) enter(m *vtime.Meter, ack bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for ack && b.exclusive || !ack && (b.paused || b.exclusive) && b.cancelErr == nil {
		if m != nil {
			m.Flush()
		}
		b.cond.Wait()
	}
	if !ack && b.cancelErr != nil {
		return b.cancelErr
	}
	b.active++
	return nil
}

func (b *flowBarrier) exit() {
	b.mu.Lock()
	b.active--
	if b.active == 0 {
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}

// lockExclusive blocks new entries and waits until the data plane drains.
func (b *flowBarrier) lockExclusive() {
	b.mu.Lock()
	for b.exclusive {
		b.cond.Wait()
	}
	b.exclusive = true
	for b.active > 0 {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

func (b *flowBarrier) unlockExclusive() {
	b.mu.Lock()
	b.exclusive = false
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *flowBarrier) setPaused(v bool) {
	b.mu.Lock()
	b.paused = v
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *flowBarrier) cancel(cause error) {
	b.mu.Lock()
	if b.cancelErr == nil {
		b.cancelErr = cause
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}

func (b *flowBarrier) err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cancelErr
}

// routeScratch is SendBatch's pooled routing scratch.
type routeScratch struct {
	consumers []int
	buckets   []int32
}

var routeScratchPool = sync.Pool{New: func() any { return new(routeScratch) }}

// Producer is the sending half of an exchange: it routes the fragment's
// output tuples to the consumer instances under the current distribution
// policy, batches them into buffers, inserts checkpoints, and keeps every
// unacknowledged buffer in a per-consumer recovery log: the in-transit
// tuples plus those making up downstream operator state, the substrate of
// retrospective adaptation (paper §3.1, Response). An unlogged producer,
// whose session nothing can replay, sends each buffer and forgets it: no
// log, no checkpoints, EOS at Close. State is sharded per consumer, so
// concurrent morsel workers serialize only when routing to the same
// consumer; the control plane takes the flow barrier.
type Producer struct {
	Exchange string
	// Fragment and Instance identify the producing subplan clone.
	Fragment string
	Instance int
	// ConsumerFragment names the downstream fragment; Consumers addresses
	// its instances.
	ConsumerFragment string
	Consumers        []Addr
	// Stateful marks the exchange as feeding operator state (join build
	// side): acknowledgements are not expected and the log retains
	// everything until Release.
	Stateful bool
	// Est is the optimiser's estimate of total tuples, for progress
	// replies.
	Est int64

	policy DistPolicy
	tr     transport.Transport
	node   simnet.NodeID
	ctx    *ExecContext

	bufferTuples    int
	checkpointEvery int

	// ft enables elastic failover: a send that finds the TARGET node dead
	// marks the shard dead and reports the peer through onPeerDown instead
	// of failing the driver. holdback defers buffer-full flushes so the
	// fragment runtime can flush outputs and acknowledge the inputs they
	// derive from in one commit section (DESIGN.md §5h).
	ft         bool
	holdback   bool
	onPeerDown func(simnet.NodeID)

	// unlogged sends each buffer in a pooled sendBuf drawn from bufs,
	// which the consumer releases once it has popped it.
	unlogged bool
	bufs     *sendBufPool

	barrier flowBarrier
	shards  []*producerShard

	routed      atomic.Int64
	buffersSent atomic.Int64
	epoch       atomic.Int64

	// finMu guards the end-of-stream protocol (driver EOS seen, EOS sent).
	finMu     sync.Mutex
	driverEOS bool
	eosSent   bool

	obsRouted  *obs.Counter
	obsBuffers *obs.Counter
}

// ProducerConfig collects construction parameters.
type ProducerConfig struct {
	Exchange         string
	Fragment         string
	Instance         int
	ConsumerFragment string
	Consumers        []Addr
	Stateful         bool
	Est              int64
	Policy           DistPolicy
	Transport        transport.Transport
	Node             simnet.NodeID
	BufferTuples     int
	CheckpointEvery  int
	// Unlogged drops the recovery log: nothing in the session can replay
	// the exchange, so it keeps no log and sends no checkpoints. The zero
	// value keeps the logged protocol.
	Unlogged bool
}

// NewProducer builds a producer.
func NewProducer(cfg ProducerConfig) *Producer {
	n := len(cfg.Consumers)
	p := &Producer{
		Exchange:         cfg.Exchange,
		Fragment:         cfg.Fragment,
		Instance:         cfg.Instance,
		ConsumerFragment: cfg.ConsumerFragment,
		Consumers:        cfg.Consumers,
		Stateful:         cfg.Stateful,
		Est:              cfg.Est,
		policy:           cfg.Policy,
		tr:               cfg.Transport,
		node:             cfg.Node,
		bufferTuples:     cfg.BufferTuples,
		checkpointEvery:  cfg.CheckpointEvery,
		unlogged:         cfg.Unlogged,
		shards:           make([]*producerShard, n),
		obsRouted:        obs.Default().Counter(obs.Label(obs.MExchangeTuplesRouted, "exchange", cfg.Exchange)),
		obsBuffers:       obs.Default().Counter(obs.Label(obs.MExchangeBuffersSent, "exchange", cfg.Exchange)),
	}
	if p.bufferTuples <= 0 {
		p.bufferTuples = DefaultBufferTuples
	}
	if p.checkpointEvery <= 0 {
		p.checkpointEvery = DefaultCheckpointEvery
	}
	if p.unlogged {
		p.bufs = sendBufPoolFor(p.bufferTuples)
	}
	for i := range p.shards {
		p.shards[i] = &producerShard{log: newRecoveryLog(p.Stateful)}
	}
	p.barrier.init()
	return p
}

// Bind attaches the runtime context (set once by the fragment runtime
// before the driver starts).
func (p *Producer) Bind(ctx *ExecContext) { p.ctx = ctx }

// SetFaultTolerant enables elastic-failover behaviour (set once by the
// fragment runtime before the driver starts). holdback defers buffer-full
// flushes until FlushHeld; onPeerDown is told about peers whose death was
// discovered by a failed flush.
func (p *Producer) SetFaultTolerant(holdback bool, onPeerDown func(simnet.NodeID)) {
	p.ft = true
	p.holdback = holdback
	p.onPeerDown = onPeerDown
}

// SendBatch routes a batch of tuples under one policy-lock and one
// shard-lock acquisition per consumer. Per consumer, sequence numbers,
// buffer boundaries, checkpoints and M2 events depend only on the tuple
// sequence, never on how it was cut into batches. The modelled
// log-management cost is charged to m, the calling driver's (goroutine-
// confined) meter; nil charges nothing. It blocks while the producer is
// paused and returns the cancellation cause once the exchange is canceled.
func (p *Producer) SendBatch(ts []relation.Tuple, m *vtime.Meter) error {
	if len(ts) == 0 {
		return nil
	}
	if err := p.barrier.enter(m, false); err != nil {
		return err
	}
	defer p.barrier.exit()
	if !p.unlogged && p.ctx != nil && p.ctx.Costs.LogAppendMs > 0 && m != nil {
		m.Charge(p.ctx.Costs.LogAppendMs * float64(len(ts)))
	}
	sc := routeScratchPool.Get().(*routeScratch)
	if cap(sc.consumers) < len(ts) {
		sc.consumers = make([]int, len(ts))
		sc.buckets = make([]int32, len(ts))
	}
	consumers := sc.consumers[:len(ts)]
	buckets := sc.buckets[:len(ts)]
	p.policy.RouteBatch(ts, consumers, buckets)
	// Two passes: for each consumer with routed tuples, take its shard lock
	// once and append that consumer's tuples in batch order. Per-consumer
	// relative order (and hence sequence assignment and checkpoint
	// positions) matches the interleaved serial walk exactly; only the
	// cross-consumer interleaving of M2 events differs, which carries no
	// protocol meaning.
	var err error
outer:
	for c, s := range p.shards {
		locked := false
		for i, target := range consumers {
			if target != c {
				continue
			}
			if !locked {
				s.mu.Lock()
				locked = true
			}
			if p.appendLocked(s, ts[i], buckets[i]) >= p.bufferTuples && !p.holdback {
				if err = p.flushShardLocked(c, s, false); err != nil {
					s.mu.Unlock()
					break outer
				}
			}
		}
		if locked {
			s.mu.Unlock()
		}
	}
	routeScratchPool.Put(sc)
	if err != nil {
		return err
	}
	p.routed.Add(int64(len(ts)))
	p.obsRouted.Add(int64(len(ts)))
	return nil
}

// appendLocked adds t to the shard's open buffer, opening one if none is,
// under the stream's next sequence, and returns the buffer's fill. Caller
// holds s.mu.
func (p *Producer) appendLocked(s *producerShard, t relation.Tuple, bucket int32) int {
	if !p.unlogged {
		s.log.append(t, bucket)
		return int(s.log.openBuf().n)
	}
	if s.out == nil {
		s.out = p.bufs.get()
		s.out.first = s.log.seq
	}
	s.out.tuples = append(s.out.tuples, t)
	s.log.seq++
	return len(s.out.tuples)
}

// flushShardLocked closes the shard's open buffer and transmits it, straight
// from the recovery log with a checkpoint when the interval is due, or
// unlogged as the pooled buffer itself, and emits the M2 monitoring event.
// Caller holds s.mu.
func (p *Producer) flushShardLocked(consumer int, s *producerShard, replay bool) error {
	if s.out == nil && !s.log.open {
		return nil
	}
	msg := &s.msg
	*msg = transport.Message{Kind: transport.KindData, Exchange: p.Exchange, ProducerIdx: p.Instance,
		ConsumerIdx: consumer, Epoch: int(p.epoch.Load())}
	if p.unlogged {
		msg.StartSeq, msg.Tuples, msg.Slots = s.out.first, s.out.tuples, s.out
		s.out = nil
	} else {
		b := s.log.openBuf()
		s.log.open = false
		msg.StartSeq, msg.Replay, msg.Tuples = b.first, replay, b.tuples()
		if slices.ContainsFunc(b.buckets(), func(k int32) bool { return k >= 0 }) {
			msg.Buckets = b.buckets()
		}
	}
	if s.dead {
		// The consumer instance is gone: the buffer is not sent (a logged
		// one's tuples stay in the recovery log for failover replay) and
		// the driver keeps going.
		msg.ReleaseSlots()
		*msg = transport.Message{}
		return nil
	}
	n := len(msg.Tuples)
	if !replay && !p.unlogged {
		s.sinceCkpt += n
		if s.sinceCkpt >= p.checkpointEvery {
			msg.Checkpoint = msg.StartSeq + int64(n) - 1
			s.sinceCkpt = 0
		}
	}
	addr := p.Consumers[consumer]
	cost, err := p.tr.Send(p.node, addr.Node, addr.Service, msg)
	*msg = transport.Message{}
	if err != nil {
		if p.markDeadOnPeerLoss(consumer, addr, err, true) {
			return nil // the buffer's tuples are still logged
		}
		return qerr.Transport(fmt.Sprintf("exchange %s flush to %s", p.Exchange, addr.Service), err)
	}
	p.buffersSent.Add(1)
	p.obsBuffers.Inc()
	if p.ctx != nil && p.ctx.Monitor != nil {
		p.ctx.Monitor.EmitM2(M2Event{
			Exchange:         p.Exchange,
			Fragment:         p.Fragment,
			Instance:         p.Instance,
			Node:             p.node,
			ConsumerFragment: p.ConsumerFragment,
			ConsumerInstance: consumer,
			ConsumerNode:     addr.Node,
			SendCostMs:       cost,
			TupleCount:       n,
		})
	}
	return nil
}

// flushAll flushes every shard. Call inside the barrier.
func (p *Producer) flushAll(replay bool) error {
	for c, s := range p.shards {
		s.mu.Lock()
		err := p.flushShardLocked(c, s, replay)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Close flushes everything and marks the driver done; the exchange is
// closed towards consumers as soon as the recovery log permits. A canceled
// exchange refuses to close normally — no EOS must reach consumers that the
// cancellation is tearing down.
func (p *Producer) Close() error {
	p.barrier.lockExclusive()
	defer p.barrier.unlockExclusive()
	if err := p.barrier.err(); err != nil {
		return err
	}
	if err := p.flushAll(false); err != nil {
		return err
	}
	p.finMu.Lock()
	defer p.finMu.Unlock()
	p.driverEOS = true
	if err := p.finalizeCheckpointsLocked(); err != nil {
		return err
	}
	return p.maybeFinishLocked()
}

// finalizeCheckpointsLocked closes the open checkpoint interval of every
// logged stream once the driver is done: without it the tail tuples would
// never be acknowledged and the recovery log would never drain. Caller
// holds finMu.
func (p *Producer) finalizeCheckpointsLocked() error {
	if !p.driverEOS || p.Stateful || p.unlogged {
		return nil
	}
	for c, s := range p.shards {
		s.mu.Lock()
		skip := s.sinceCkpt == 0 || s.log.seq == 1 || s.dead
		var ck int64
		if !skip {
			s.sinceCkpt = 0
			ck = s.log.seq - 1
		}
		s.mu.Unlock()
		if skip {
			continue
		}
		msg := &transport.Message{
			Kind:        transport.KindData,
			Exchange:    p.Exchange,
			ProducerIdx: p.Instance,
			ConsumerIdx: c,
			Epoch:       int(p.epoch.Load()),
			Checkpoint:  ck,
		}
		addr := p.Consumers[c]
		if _, err := p.tr.Send(p.node, addr.Node, addr.Service, msg); err != nil {
			if p.markDeadOnPeerLoss(c, addr, err, false) {
				continue
			}
			return qerr.Transport(fmt.Sprintf("exchange %s checkpoint to %s", p.Exchange, addr.Service), err)
		}
	}
	return nil
}

// markDeadOnPeerLoss handles a send error in fault-tolerant mode: if the
// error reports that the TARGET consumer's node died, the shard is marked
// dead (its logged tuples await failover replay) and the caller may carry
// on. Self-death and other faults stay fatal. locked says the caller holds
// the shard's lock.
func (p *Producer) markDeadOnPeerLoss(consumer int, addr Addr, err error, locked bool) bool {
	var down *transport.NodeDownError
	if !p.ft || !errors.As(err, &down) || down.Node != addr.Node || addr.Node == p.node {
		return false
	}
	if s := p.shards[consumer]; locked {
		s.dead = true
	} else {
		s.mu.Lock()
		s.dead = true
		s.mu.Unlock()
	}
	if p.onPeerDown != nil {
		p.onPeerDown(addr.Node)
	}
	return true
}

// maybeFinishLocked sends the exchange-complete signal when allowed. For a
// stateful exchange the normal flow ends with the driver (the consumer's
// build phase must terminate; the log stays for replay). For a stateless
// exchange the signal is deferred until the recovery log drains, because
// logged tuples may yet be recalled and re-routed to consumers that would
// otherwise have finished. Caller holds finMu.
func (p *Producer) maybeFinishLocked() error {
	if !p.driverEOS || p.eosSent {
		return nil
	}
	if !p.Stateful {
		for _, s := range p.shards {
			s.mu.Lock()
			n := s.log.live
			s.mu.Unlock()
			if n > 0 {
				return nil
			}
		}
	}
	p.eosSent = true
	for i, addr := range p.Consumers {
		s := p.shards[i]
		s.mu.Lock()
		dead := s.dead
		s.mu.Unlock()
		if dead {
			continue
		}
		msg := &transport.Message{
			Kind:        transport.KindEOS,
			Exchange:    p.Exchange,
			ProducerIdx: p.Instance,
			ConsumerIdx: i,
		}
		if _, err := p.tr.Send(p.node, addr.Node, addr.Service, msg); err != nil {
			if p.markDeadOnPeerLoss(i, addr, err, false) {
				continue
			}
			return qerr.Transport(fmt.Sprintf("exchange %s EOS to %s", p.Exchange, addr.Service), err)
		}
	}
	return nil
}

// Cancel aborts the exchange: any Send/SendBatch blocked on a pause — and
// every future one — returns cause immediately, and Close becomes a no-op
// that reports cause instead of signalling EOS. First cause wins; Cancel is
// idempotent. This is how a context cancellation reaches a driver parked
// inside a paused exchange mid-adaptation.
func (p *Producer) Cancel(cause error) {
	if cause == nil {
		cause = qerr.ErrCanceled
	}
	p.barrier.cancel(cause)
}

// HandleAck releases acknowledged log entries (stateless exchanges only;
// stateful logs persist until Release). Sequences listed in Except were
// discarded by a recall, ascending: they stay logged until the resend step
// migrates them to their new consumer. Acks enter the barrier in ack mode.
func (p *Producer) HandleAck(msg *transport.Message) {
	if p.Stateful {
		return
	}
	_ = p.barrier.enter(nil, true)
	defer p.barrier.exit()
	if msg.ConsumerIdx < 0 || msg.ConsumerIdx >= len(p.shards) {
		return
	}
	s := p.shards[msg.ConsumerIdx]
	s.mu.Lock()
	if s.dead {
		// A late ack from an instance already failed over: its log was
		// replayed onto survivors, so there is nothing left to release.
		s.mu.Unlock()
		return
	}
	s.log.release(msg.Checkpoint, msg.Except)
	s.mu.Unlock()
	p.finMu.Lock()
	_ = p.maybeFinishLocked()
	p.finMu.Unlock()
}

// Pause stops the normal flow after flushing every open buffer, so that
// when it returns every routed tuple is at (or on the wire to) its
// consumer. The flag is raised inside the exclusive section.
func (p *Producer) Pause() error {
	p.barrier.lockExclusive()
	if err := p.flushAll(false); err != nil {
		p.barrier.unlockExclusive()
		return err
	}
	p.barrier.setPaused(true)
	p.barrier.unlockExclusive()
	return nil
}

// Resume restarts the normal flow.
func (p *Producer) Resume() {
	p.epoch.Add(1)
	p.barrier.setPaused(false)
}

// SetWeights installs a new distribution vector (prospective, R2). It takes
// the barrier so the swap is atomic with respect to in-flight batches: every
// batch routes entirely under the old vector or entirely under the new one.
func (p *Producer) SetWeights(w []float64) error {
	p.barrier.lockExclusive()
	defer p.barrier.unlockExclusive()
	_, err := p.policy.SetWeights(w)
	return err
}

// SetOwnerMap installs a new bucket→owner map (hash policies).
func (p *Producer) SetOwnerMap(m []int32) error {
	p.barrier.lockExclusive()
	defer p.barrier.unlockExclusive()
	return p.policy.SetOwnerMap(m)
}

// Progress reports routed tuples and the optimiser's estimate.
func (p *Producer) Progress() (routed, est int64) {
	return p.routed.Load(), p.Est
}

// Replay retransmits every logged tuple belonging to the given buckets,
// routing by the (already updated) owner map and marking the buffers as
// replay so consumers rebuild operator state from them. Entries migrate to
// the new owner's log under fresh sequence numbers. Call while paused.
func (p *Producer) Replay(buckets []int32) (int, error) {
	set := make(map[int32]bool, len(buckets))
	for _, b := range buckets {
		set[b] = true
	}
	p.barrier.lockExclusive()
	defer p.barrier.unlockExclusive()
	// Snapshot every affected entry across all logs BEFORE migrating any:
	// entries appended to the new owner's log during migration must not be
	// replayed a second time when the iteration reaches that log, or the
	// rebuilt state would contain duplicates.
	var pending []logEntry
	for consumer, s := range p.shards {
		s.mu.Lock()
		s.log.each(func(seq int64, _ relation.Tuple, bucket int32) {
			if set[bucket] {
				pending = append(pending, logEntry{consumer: consumer, seq: seq})
			}
		})
		s.mu.Unlock()
	}
	return p.replayEntries(pending)
}

// logEntry names one logged tuple: its consumer stream and sequence.
type logEntry struct {
	consumer int
	seq      int64
}

// replayEntries moves the snapshotted entries in order as replay. An entry
// no longer logged fails the call before anything more is routed, as in
// Resend: routing a missing tuple would hand the new owner a nil tuple.
// Call with the barrier held exclusively.
func (p *Producer) replayEntries(pending []logEntry) (int, error) {
	return p.reroute(len(pending), func(i int) (relation.Tuple, int32, error) {
		e := pending[i]
		src := p.shards[e.consumer]
		src.mu.Lock()
		t, bucket, ok := src.log.take(e.seq)
		src.mu.Unlock()
		if !ok {
			return nil, 0, fmt.Errorf("engine: replay of unknown seq %d on %s/consumer %d", e.seq, p.Exchange, e.consumer)
		}
		return t, bucket, nil
	}, true, -1)
}

// Resend re-routes previously discarded tuples (reported by a consumer
// recall) under the current policy as normal flow. Call while paused.
func (p *Producer) Resend(fromConsumer int, seqs []int64) (int, error) {
	p.barrier.lockExclusive()
	defer p.barrier.unlockExclusive()
	src := p.shards[fromConsumer]
	sorted := slices.Clone(seqs)
	slices.Sort(sorted)
	return p.reroute(len(sorted), func(i int) (relation.Tuple, int32, error) {
		src.mu.Lock()
		t, bucket, ok := src.log.take(sorted[i])
		src.mu.Unlock()
		if !ok {
			return nil, 0, fmt.Errorf("engine: resend of unknown seq %d on %s/consumer %d", sorted[i], p.Exchange, fromConsumer)
		}
		return t, bucket, nil
	}, false, -1)
}

// reroute is the one loop that moves logged tuples to new consumers: it
// takes n tuples in order from next, routes each under the current policy
// (by its bucket when it has one), logs it on the target shard under a
// fresh sequence number, and flushes full buffers, then every shard. Normal
// flow also closes the checkpoint intervals and re-checks end-of-stream. A
// tuple routed to the consumer named by lost fails the call. Call with the
// barrier held exclusively.
func (p *Producer) reroute(n int, next func(i int) (relation.Tuple, int32, error), replay bool, lost int) (int, error) {
	moved := 0
	for i := 0; i < n; i++ {
		t, bucket, err := next(i)
		if err != nil {
			return moved, err
		}
		var target int
		if bucket >= 0 {
			target = p.policy.RouteBucket(bucket)
		} else {
			target, _ = p.policy.Route(t)
		}
		if target == lost {
			return moved, fmt.Errorf("engine: replay-lost on %s still routes to dead consumer %d", p.Exchange, lost)
		}
		dst := p.shards[target]
		dst.mu.Lock()
		moved++
		if p.appendLocked(dst, t, bucket) >= p.bufferTuples {
			err = p.flushShardLocked(target, dst, replay)
		}
		dst.mu.Unlock()
		if err != nil {
			return moved, err
		}
	}
	if err := p.flushAll(replay); err != nil {
		return moved, err
	}
	if replay {
		return moved, nil
	}
	p.finMu.Lock()
	defer p.finMu.Unlock()
	if err := p.finalizeCheckpointsLocked(); err != nil {
		return moved, err
	}
	_ = p.maybeFinishLocked()
	return moved, nil
}

// FlushHeld transmits every held buffer. The fragment runtime calls it in
// holdback mode, inside the commit section that also acknowledges the
// consumed inputs those outputs derive from; it enters the barrier in ack
// mode so it flows during an R1 pause but never overlaps an exclusive
// control section.
func (p *Producer) FlushHeld() error {
	_ = p.barrier.enter(nil, true)
	defer p.barrier.exit()
	return p.flushAll(false)
}

// ReplayLost re-routes every unacknowledged tuple of a dead consumer
// instance onto the survivors under the current (already reweighted) policy
// as normal flow, detaches the instance, and returns the tuples moved. Acks
// release a tuple only once its outputs are durably forwarded (the holdback
// commit), so the dead shard's log is exactly what is missing downstream.
func (p *Producer) ReplayLost(dead int) (int, error) {
	p.barrier.lockExclusive()
	defer p.barrier.unlockExclusive()
	if dead < 0 || dead >= len(p.shards) {
		return 0, fmt.Errorf("engine: replay-lost of unknown consumer %d on %s", dead, p.Exchange)
	}
	src := p.shards[dead]
	src.mu.Lock()
	tuples := make([]relation.Tuple, 0, src.log.live)
	buckets := make([]int32, 0, src.log.live)
	src.log.each(func(_ int64, t relation.Tuple, bucket int32) {
		tuples, buckets = append(tuples, t), append(buckets, bucket)
	})
	src.log.reset()
	src.dead = true
	src.mu.Unlock()
	return p.reroute(len(tuples), func(i int) (relation.Tuple, int32, error) { return tuples[i], buckets[i], nil }, false, dead)
}

// DetachConsumer marks a dead consumer instance as gone without replaying
// its log. Stateful exchanges use it after CtrlReplay has migrated the dead
// instance's buckets; it also re-checks end-of-stream, since a detached
// shard no longer holds EOS back.
func (p *Producer) DetachConsumer(dead int) error {
	p.barrier.lockExclusive()
	defer p.barrier.unlockExclusive()
	if dead < 0 || dead >= len(p.shards) {
		return fmt.Errorf("engine: detach of unknown consumer %d on %s", dead, p.Exchange)
	}
	s := p.shards[dead]
	s.mu.Lock()
	s.dead = true
	s.log.open = false // the open buffer is never sent; the log keeps it
	if p.Stateful {
		// Stateful logs exist to rebuild remote state; the dead instance's
		// buckets were already replayed to their new owners.
		s.log.reset()
	}
	s.mu.Unlock()
	p.finMu.Lock()
	defer p.finMu.Unlock()
	_ = p.maybeFinishLocked()
	return nil
}

// AddConsumer extends the exchange with a newly joined consumer instance
// (live join), installing w as the distribution vector over the grown
// instance set. It fails if the exchange has already signalled EOS — the
// newcomer would wait forever on a stream that will never close — or if the
// policy cannot grow (hash policies pin state to buckets; hash fragments
// join at the next query via the plan-cache epoch).
func (p *Producer) AddConsumer(addr Addr, w []float64) error {
	p.barrier.lockExclusive()
	defer p.barrier.unlockExclusive()
	p.finMu.Lock()
	defer p.finMu.Unlock()
	if p.eosSent {
		return fmt.Errorf("engine: exchange %s already closed; too late to attach", p.Exchange)
	}
	wp, ok := p.policy.(*WeightedPolicy)
	if !ok {
		return fmt.Errorf("engine: exchange %s policy cannot grow live", p.Exchange)
	}
	if err := wp.Extend(w); err != nil {
		return err
	}
	p.Consumers = append(p.Consumers, addr)
	p.shards = append(p.shards, &producerShard{log: newRecoveryLog(p.Stateful)})
	return nil
}

// Release drops a stateful exchange's log at query end.
func (p *Producer) Release() {
	for _, s := range p.shards {
		s.mu.Lock()
		s.log.reset()
		s.mu.Unlock()
	}
}

// Stats reports counters for the overhead experiments.
func (p *Producer) Stats() (routed int64, buffers int64, logSize int) {
	size := 0
	for _, s := range p.shards {
		s.mu.Lock()
		size += s.log.live
		s.mu.Unlock()
	}
	return p.routed.Load(), p.buffersSent.Load(), size
}

// ConsumerTupleCounts reports how many tuples were routed to each consumer
// (cumulative, including resends); the paper reports the slow/fast ratio in
// its overhead analysis.
func (p *Producer) ConsumerTupleCounts() []int64 {
	counts := make([]int64, len(p.shards))
	for i, s := range p.shards {
		s.mu.Lock()
		counts[i] = s.log.seq - 1
		s.mu.Unlock()
	}
	return counts
}
