package engine

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestConsumerNeverReadsRecycledSlots runs the exchange with every slot a
// recovery log or a released send buffer gives up overwritten by a poison
// tuple. The consumer's queue reads the producer's slots in place, so a
// queue that read a slot past its lifetime (a pop, or a recall's bucket
// filter, after the slot was released) would see the poison. Seeded scripts
// drive a producer and two consumers through recall rounds with resend or
// stateful replay, stalled and out-of-order worker handles, checkpoint-only
// messages and, stateless, a dead consumer's replay-lost; unlogged, through
// the same handles and prospective re-routing. No handle may pop the poison,
// and every tuple sent must arrive.
func TestConsumerNeverReadsRecycledSlots(t *testing.T) {
	poison := relation.Tuple{relation.Int(-1)}
	slotPoison.Store(&poison)
	defer slotPoison.Store(nil)
	for seed := int64(1); seed <= 4; seed++ {
		for _, stateful := range []bool{false, true} {
			recycledSlotsScript(t, seed, stateful)
		}
		unloggedSlotsScript(t, seed)
	}
}

// countedSlots counts the releases of the buffer it wraps.
type countedSlots struct {
	transport.Releaser
	n *atomic.Int64
}

func (c countedSlots) Release() {
	c.n.Add(1)
	c.Releaser.Release()
}

// unloggedSlotsScript drives an unlogged exchange: every buffer is a pooled
// send buffer its consumer releases once it has popped the last tuple, and
// the producer reuses it at once. A buffer released early would show the
// poison, or another buffer's tuples, to a later pop. No message may carry a
// bucket or a checkpoint, no consumer may acknowledge, every buffer handed
// over must come back exactly once, and every tuple sent must arrive exactly
// once.
func unloggedSlotsScript(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pol, err := NewHashPolicy([]int{0}, 16, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	net, ctx := newExchangeContext()
	rig := newExchangeRigFor(t, net, ctx, 2, ProducerConfig{Policy: pol, BufferTuples: 16, CheckpointEvery: 32, Unlogged: true})
	var handed, released atomic.Int64
	eos := make([]int, 2)
	rig.onData = func(c int, m *transport.Message) {
		if m.Kind == transport.KindEOS {
			eos[c]++
			return
		}
		if m.Slots == nil || m.Buckets != nil || m.Checkpoint != 0 || m.Replay {
			t.Errorf("seed %d: unlogged data message %+v", seed, m)
			return
		}
		handed.Add(1)
		m.Slots = countedSlots{m.Slots, &released}
	}
	rig.onAck = func(*transport.Message) { t.Errorf("seed %d: an unlogged consumer acknowledged", seed) }

	c0, c1 := rig.cons[0], rig.cons[1]
	w1, w2 := c1.NewWorker(), c1.NewWorker()
	for _, w := range []*ConsumerWorker{w1, w2} {
		if err := w.Open(ctx); err != nil {
			t.Fatal(err)
		}
	}
	handles := []*transcriptHandle{
		{name: "c0", it: c0, finish: func() {
			c0.gate.mu.Lock()
			c0.finishLocked(&c0.self)
			c0.gate.mu.Unlock()
		}},
		{name: "c1/w1", it: w1, finish: w1.Finish},
		{name: "c1/w2", it: w2, finish: w2.Finish},
	}
	got, sent := map[int64]int{}, map[int64]int{}
	batch := relation.NewBatch(64)
	pop := func(h *transcriptHandle) {
		batch.SetLimit(1 + rng.Intn(64))
		n, err := h.it.NextBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range batch.Tuples[:n] {
			if poisoned(tp) {
				t.Fatalf("seed %d unlogged: %s popped a released slot", seed, h.name)
			}
			got[tp[0].AsInt()]++
		}
		h.drained = n == 0
	}
	queued := func(c *Consumer) int { _, _, q := c.Stats(); return q }
	nextID := int64(0)
	mirror, _ := NewHashPolicy([]int{0}, 16, []float64{0.5, 0.5})
	for round := 0; round < 6; round++ {
		stall1 := rng.Intn(3) == 0
		for i := 0; i < 30; i++ {
			switch r := rng.Intn(10); {
			case r < 4:
				ts := make([]relation.Tuple, 1+rng.Intn(200))
				for i := range ts {
					nextID++
					ts[i] = relation.Tuple{relation.Int(nextID)}
					sent[nextID]++
				}
				if err := rig.prod.SendBatch(ts, ctx.Meter); err != nil {
					t.Fatal(err)
				}
			case r < 6:
				if queued(c0) > 0 {
					pop(handles[0])
				}
			case r < 8 && !stall1:
				if h := handles[1+rng.Intn(2)]; queued(c1) > 0 {
					pop(h)
				}
			case !stall1:
				handles[1+rng.Intn(2)].finish()
			}
		}
		// A prospective round: flush, re-route, resume. Nothing is recalled.
		if err := rig.prod.Pause(); err != nil {
			t.Fatal(err)
		}
		w0 := 0.2 + 0.6*rng.Float64()
		if _, err := mirror.SetWeights([]float64{w0, 1 - w0}); err != nil {
			t.Fatal(err)
		}
		if err := rig.prod.SetOwnerMap(mirror.OwnerMap()); err != nil {
			t.Fatal(err)
		}
		rig.prod.Resume()
	}
	if err := rig.prod.Close(); err != nil {
		t.Fatal(err)
	}
	for _, h := range handles {
		for !h.drained {
			pop(h)
		}
	}
	for _, w := range []*ConsumerWorker{w1, w2} {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	compareMultisets(t, got, sent)
	if eos[0] != 1 || eos[1] != 1 {
		t.Fatalf("seed %d: EOS per consumer %v, want one each", seed, eos)
	}
	if h, r := handed.Load(), released.Load(); h == 0 || r != h {
		t.Fatalf("seed %d: %d buffers handed over, %d released", seed, h, r)
	}
	if _, buffers, logged := rig.prod.Stats(); buffers != handed.Load() || logged != 0 {
		t.Fatalf("seed %d: %d buffers sent, %d handed over, %d tuples logged", seed, buffers, handed.Load(), logged)
	}
}

// TestSendBufDoubleReleasePanics: a released send buffer's slots are
// poisoned under a test, and it carries an in-pool mark, so releasing it
// again, a handover bug that would let two readers share its slots, panics.
func TestSendBufDoubleReleasePanics(t *testing.T) {
	poison := relation.Tuple{relation.Int(-1)}
	slotPoison.Store(&poison)
	defer slotPoison.Store(nil)
	b := sendBufPoolFor(7).get()
	b.tuples = append(b.tuples, relation.Tuple{relation.Int(1)})
	held := b.tuples
	b.Release()
	if !poisoned(held[0]) || len(b.tuples) != 0 {
		t.Fatal("a released send buffer kept its tuples")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second release did not panic")
		}
	}()
	b.Release()
}

// TestUnloggedConsumerReleasesEveryBuffer: an unlogged buffer is released
// exactly once wherever it leaves the consumer: popped to its last tuple,
// empty, refused by Deliver, delivered after Close, or still queued at Close.
func TestUnloggedConsumerReleasesEveryBuffer(t *testing.T) {
	net, ctx := newExchangeContext()
	c := newConsumer("EX", 0, []Addr{{Node: "n", Service: "prod"}}, false, newFlowGate(), transport.NewInProc(net), "n")
	if err := c.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var released atomic.Int64
	pool, seq := sendBufPoolFor(3), int64(1)
	buffer := func(n int) *transport.Message {
		b := pool.get()
		for range n {
			b.tuples = append(b.tuples, relation.Tuple{relation.Int(seq)})
			seq++
		}
		return &transport.Message{Kind: transport.KindData, Exchange: "EX", StartSeq: seq - int64(n),
			Tuples: b.tuples, Slots: countedSlots{b, &released}}
	}
	want := func(n int64, when string) {
		t.Helper()
		if got := released.Load(); got != n {
			t.Fatalf("%s: %d buffers released, want %d", when, got, n)
		}
	}
	batch := relation.NewBatch(8)
	batch.SetLimit(2)
	if err := c.Deliver(buffer(3)); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.NextBatch(batch); n != 2 {
		t.Fatalf("popped %d", n)
	}
	want(0, "two of three tuples popped")
	if n, _ := c.NextBatch(batch); n != 1 {
		t.Fatalf("popped %d", n)
	}
	want(1, "the last tuple popped")
	if err := c.Deliver(buffer(0)); err != nil {
		t.Fatal(err)
	}
	want(2, "an empty buffer")
	bad := buffer(2)
	bad.ProducerIdx = 5
	if c.Deliver(bad) == nil {
		t.Fatal("a bad producer index was accepted")
	}
	bad = buffer(2)
	bad.Buckets = []int32{1}
	if c.Deliver(bad) == nil {
		t.Fatal("a bucket count mismatch was accepted")
	}
	want(4, "two refused buffers")
	for range 2 {
		if err := c.Deliver(buffer(3)); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := c.NextBatch(batch); n != 2 {
		t.Fatalf("popped %d", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	want(6, "two buffers queued at Close")
	if err := c.Deliver(buffer(3)); err != nil {
		t.Fatal(err)
	}
	want(7, "a buffer delivered after Close")
	if _, _, q := c.Stats(); q != 0 {
		t.Fatalf("%d tuples queued after Close", q)
	}
}

func recycledSlotsScript(t *testing.T, seed int64, stateful bool) {
	rng := rand.New(rand.NewSource(seed))
	pol, err := NewHashPolicy([]int{0}, 16, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	net, ctx := newExchangeContext()
	rig := newExchangeRig(t, net, ctx, 2, pol, stateful, 16, 32)
	var mu sync.Mutex
	streams := make([]*transcriptStream, 2)
	bucketOf := map[int64]int32{}
	// idAt names each stream's delivered sequences; stale marks those a
	// prospective round replayed to a new owner while still queued here.
	idAt := []map[int64]int64{{}, {}}
	stale := []map[int64]bool{{}, {}}
	for i := range streams {
		streams[i] = &transcriptStream{outstanding: map[int64]bool{}, seqOf: map[int64]int64{}, state: map[int64]int{}}
		if stateful {
			rig.cons[i].SetStateTarget(transcriptTarget{s: streams[i], mu: &mu})
		}
	}
	rig.onData = func(c int, m *transport.Message) {
		mu.Lock()
		defer mu.Unlock()
		s := streams[c]
		for i, tp := range m.Tuples {
			id := tp[0].AsInt()
			bucketOf[id] = m.Buckets[i]
			if !m.Replay {
				seq := m.StartSeq + int64(i)
				s.outstanding[seq] = true
				s.seqOf[id] = seq
				idAt[c][seq] = id
			}
		}
		if m.Checkpoint > 0 {
			s.cks = append(s.cks, m.Checkpoint)
		}
	}
	// An ack is counted once the producer has handled it, so settle also
	// waits for the releases the acks cause.
	rig.prod.tr.Register("n", "prod", func(_ simnet.NodeID, m *transport.Message) {
		rig.prod.HandleAck(m)
		mu.Lock()
		streams[m.ConsumerIdx].acks = append(streams[m.ConsumerIdx].acks, transcriptAck{ck: m.Checkpoint})
		mu.Unlock()
	})
	// settle first lets each consumer acknowledge the checkpoints a recall
	// completed, as the next checkpoint's arrival would, then waits until
	// every acknowledgement owed has been handled.
	settle := func() {
		t.Helper()
		if stateful {
			return // a stateful consumer never acknowledges
		}
		for _, c := range rig.cons {
			c.gate.mu.Lock()
			acks := c.ackableLocked(nil)
			c.gate.mu.Unlock()
			for _, a := range acks {
				c.sendAck(a)
			}
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			mu.Lock()
			done := true
			for c, s := range streams {
				if got, want := len(s.acks), s.owed(); got > want {
					mu.Unlock()
					t.Fatalf("seed %d: consumer %d sent %d acks, owes %d", seed, c, got, want)
				} else if got < want {
					done = false
				}
			}
			mu.Unlock()
			if done {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: acknowledgements never settled", seed)
			}
		}
	}

	c0, c1 := rig.cons[0], rig.cons[1]
	w1, w2 := c1.NewWorker(), c1.NewWorker()
	for _, w := range []*ConsumerWorker{w1, w2} {
		if err := w.Open(ctx); err != nil {
			t.Fatal(err)
		}
	}
	handles := []*transcriptHandle{
		{name: "c0", c: 0, it: c0, finish: func() {
			c0.gate.mu.Lock()
			c0.finishLocked(&c0.self)
			c0.gate.mu.Unlock()
		}},
		{name: "c1/w1", c: 1, it: w1, finish: w1.Finish},
		{name: "c1/w2", c: 1, it: w2, finish: w2.Finish},
	}
	release := func(h *transcriptHandle) {
		mu.Lock()
		for _, seq := range h.held {
			delete(streams[h.c].outstanding, seq)
		}
		h.held = nil
		mu.Unlock()
	}
	batch := relation.NewBatch(64)
	pop := func(h *transcriptHandle) {
		release(h)
		batch.SetLimit(1 + rng.Intn(64))
		n, err := h.it.NextBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		s := streams[h.c]
		for _, tp := range batch.Tuples[:n] {
			if poisoned(tp) {
				t.Fatalf("seed %d stateful %t: %s popped a released slot", seed, stateful, h.name)
			}
			id := tp[0].AsInt()
			seq := s.seqOf[id]
			h.held = append(h.held, seq)
			s.consumed = append(s.consumed, [2]int64{id, seq})
			if !stale[h.c][seq] {
				s.state[id]++
			}
		}
		h.drained = n == 0
	}
	finish := func(h *transcriptHandle) {
		release(h)
		h.finish()
	}
	queued := func(c *Consumer) int { _, _, q := c.Stats(); return q }
	sent := map[int64]int{}
	nextID := int64(0)
	send := func(n int) {
		ts := make([]relation.Tuple, n)
		for i := range ts {
			nextID++
			ts[i] = relation.Tuple{relation.Int(nextID)}
			sent[nextID]++
		}
		if err := rig.prod.SendBatch(ts, ctx.Meter); err != nil {
			t.Fatal(err)
		}
	}
	// traffic sends and pops at random; consumer 1 is stalled for a whole
	// phase at a time, so a recall finds a backlog there.
	traffic := func(steps int, sends, stall1 bool) {
		for i := 0; i < steps; i++ {
			switch r := rng.Intn(10); {
			case r < 4 && sends:
				send(1 + rng.Intn(200))
			case r < 6:
				if queued(c0) > 0 {
					pop(handles[0])
				}
			case r < 8 && !stall1:
				if h := handles[1+rng.Intn(2)]; queued(c1) > 0 {
					pop(h)
				}
			case !stall1: // the two workers finish out of order
				finish(handles[1+rng.Intn(2)])
			}
		}
	}
	discard := func(c *Consumer, buckets []int32) map[int][]int64 {
		var report map[int][]int64
		c.gate.quiesce(func() { report = c.discardLocked(buckets) })
		mu.Lock()
		for _, seqs := range report {
			for _, seq := range seqs {
				delete(streams[c.ConsumerIdx].outstanding, seq)
			}
		}
		mu.Unlock()
		return report
	}
	// adapt moves buckets to weights w. A retrospective round (R1) pauses,
	// discards the moved buckets (everything consumer 1 holds when it is
	// left none), installs the map, then resends (stateless) or evicts and
	// replays (stateful), and resumes. A prospective round (R2, stateful
	// only) installs the map and replays without recalling anything, so the
	// replay takes tuples the old owner still holds queued.
	mirror, _ := NewHashPolicy([]int{0}, 16, []float64{0.5, 0.5})
	adapt := func(w []float64, retrospective bool) {
		for _, h := range handles {
			finish(h)
		}
		if err := rig.prod.Pause(); err != nil {
			t.Fatal(err)
		}
		moved, err := mirror.SetWeights(w)
		if err != nil {
			t.Fatal(err)
		}
		if moved == nil {
			moved = []int32{} // a nil filter would recall everything
		}
		filter1 := moved
		if w[1] == 0 {
			filter1 = nil // everything consumer 1 holds
		}
		var reports []map[int][]int64
		if retrospective {
			reports = []map[int][]int64{discard(c0, moved), discard(c1, filter1)}
		}
		if err := rig.prod.SetOwnerMap(mirror.OwnerMap()); err != nil {
			t.Fatal(err)
		}
		if stateful {
			isMoved := map[int32]bool{}
			for _, b := range moved {
				isMoved[b] = true
			}
			mu.Lock()
			for c, s := range streams {
				for seq := range s.outstanding {
					if isMoved[bucketOf[idAt[c][seq]]] {
						stale[c][seq] = true
					}
				}
			}
			mu.Unlock()
			// The eviction queues at each consumer's gate, as the CtrlEvict
			// handler queues it, so it applies in order with the replays.
			for c, cons := range rig.cons {
				s := streams[c]
				cons.gate.post(func() {
					mu.Lock()
					defer mu.Unlock()
					for id := range s.state {
						if isMoved[bucketOf[id]] {
							delete(s.state, id)
						}
					}
				})
			}
			if _, err := rig.prod.Replay(moved); err != nil {
				t.Fatal(err)
			}
		} else {
			for c, rep := range reports {
				if seqs := rep[0]; len(seqs) > 0 {
					if _, err := rig.prod.Resend(c, seqs); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		rig.prod.Resume()
	}

	for round := 0; round < 6; round++ {
		traffic(30, true, rng.Intn(3) == 0)
		settle()
		if w0 := 0.2 + 0.6*rng.Float64(); round%3 != 1 {
			adapt([]float64{w0, 1 - w0}, !stateful || rng.Intn(2) == 0)
			continue
		}
		if stateful {
			// A prospective round takes consumer 1's every bucket: the
			// replay empties its log while its queue still holds the tuples.
			adapt([]float64{1, 0}, false)
			continue
		}
		// Lock-step: consumer 0 owns every bucket and keeps up with one
		// buffer per batch, so each acknowledgement drains the log and
		// rewinds its chunk before the next batch reuses it.
		adapt([]float64{1, 0}, true)
		for i := 0; i < 8; i++ {
			for queued(c0) > 0 {
				pop(handles[0])
			}
			finish(handles[0])
			settle()
			send(16)
			// Let an acknowledgement the delivery triggered, owed or not,
			// reach the producer before the buffer is popped.
			for range 10 {
				runtime.Gosched()
			}
		}
	}
	traffic(30, true, false)
	for _, h := range handles {
		finish(h)
	}
	if err := rig.prod.Close(); err != nil {
		t.Fatal(err)
	}

	if stateful {
		for _, h := range handles {
			for !h.drained {
				pop(h)
			}
		}
		for _, w := range []*ConsumerWorker{w1, w2} {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		got := map[int64]int{}
		for _, s := range streams {
			for id, n := range s.state {
				got[id] += n
			}
		}
		compareMultisets(t, got, sent)
		return
	}
	// Consumer 1 dies: its unacknowledged log moves to consumer 0, the
	// tuples it consumed past its last acknowledged checkpoint included.
	traffic(20, false, false)
	for _, h := range handles {
		finish(h)
	}
	settle()
	if err := rig.prod.SetOwnerMap(make([]int32, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.prod.ReplayLost(1); err != nil {
		t.Fatal(err)
	}
	for !handles[0].drained {
		pop(handles[0])
	}
	settle()
	mu.Lock()
	defer mu.Unlock()
	var acked int64
	for _, a := range streams[1].acks {
		acked = max(acked, a.ck)
	}
	got := map[int64]int{}
	for _, e := range streams[0].consumed {
		got[e[0]]++
	}
	for _, e := range streams[1].consumed {
		if e[1] <= acked {
			got[e[0]]++
		}
	}
	compareMultisets(t, got, sent)
}
