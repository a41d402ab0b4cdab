package engine

import (
	"math/bits"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/testenv"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// consumerHarness wires a consumer with a capture endpoint for its acks.
type consumerHarness struct {
	cons *Consumer
	ctx  *ExecContext

	mu   sync.Mutex
	acks []*transport.Message
}

func newConsumerHarness(t *testing.T, producers int, stateful bool) *consumerHarness {
	t.Helper()
	clock := vtime.NewClock(time.Microsecond)
	net := simnet.NewNetwork(clock)
	net.AddNode("src")
	net.AddNode("sink")
	tr := transport.NewInProc(net)
	h := &consumerHarness{}
	addrs := make([]Addr, producers)
	for i := range addrs {
		addrs[i] = Addr{Node: "src", Service: "prod"}
	}
	tr.Register("src", "prod", func(_ simnet.NodeID, m *transport.Message) {
		// The consumer recycles ack messages once Send returns, so the
		// harness keeps a copy, as a real producer would.
		cp := *m
		cp.Except = append([]int64(nil), m.Except...)
		h.mu.Lock()
		h.acks = append(h.acks, &cp)
		h.mu.Unlock()
	})
	h.ctx = &ExecContext{Clock: clock, Node: net.Node("sink"),
		Meter: vtime.NewMeter(clock), Costs: DefaultCosts(), Buckets: 16}
	h.cons = newConsumer("EX", 0, addrs, stateful, newFlowGate(), tr, "sink")
	if err := h.cons.Open(h.ctx); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *consumerHarness) ackMessages() []*transport.Message {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*transport.Message(nil), h.acks...)
}

// deliver pushes a data buffer from producer 0.
func (h *consumerHarness) deliver(t *testing.T, startSeq int64, ckpt int64, buckets []int32, tuples ...relation.Tuple) {
	t.Helper()
	msg := &transport.Message{
		Kind: transport.KindData, Exchange: "EX",
		ProducerIdx: 0, ConsumerIdx: 0,
		StartSeq: startSeq, Checkpoint: ckpt,
		Tuples: tuples, Buckets: buckets,
	}
	if err := h.cons.Deliver(msg); err != nil {
		t.Fatal(err)
	}
}

// pop pulls one tuple: a batch clamped to width 1 keeps exactly one tuple in
// flight between pulls, the granularity the flow-gate and checkpoint tests
// script their interleavings at.
func (h *consumerHarness) pop(t *testing.T) (relation.Tuple, bool) {
	t.Helper()
	tp, ok, err := popOne(h.cons)
	if err != nil {
		t.Fatal(err)
	}
	return tp, ok
}

// popOne is pop without a testing.T, for pulls on helper goroutines.
func popOne(c *Consumer) (relation.Tuple, bool, error) {
	one := relation.NewBatch(1)
	n, err := c.NextBatch(one)
	if err != nil || n == 0 {
		return nil, false, err
	}
	return one.Tuples[0], true, nil
}

func TestConsumerFIFOAndEOS(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	h.deliver(t, 1, 0, nil, intTuple(1), intTuple(2))
	if err := h.cons.Deliver(&transport.Message{Kind: transport.KindEOS, Exchange: "EX"}); err != nil {
		t.Fatal(err)
	}
	for want := 1; want <= 2; want++ {
		tp, ok := h.pop(t)
		if !ok || tp[0].AsInt() != int64(want) {
			t.Fatalf("pop %d: %v %v", want, tp, ok)
		}
	}
	if _, ok := h.pop(t); ok {
		t.Fatal("expected EOS")
	}
	consumed, _, queued := h.cons.Stats()
	if consumed != 2 || queued != 0 {
		t.Fatalf("stats: consumed=%d queued=%d", consumed, queued)
	}
}

func TestConsumerAcksCompletedCheckpoints(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	h.deliver(t, 1, 3, nil, intTuple(1), intTuple(2), intTuple(3))
	// Pop all three; the third's processing completes at the next call.
	for i := 0; i < 3; i++ {
		h.pop(t)
	}
	if len(h.ackMessages()) != 0 {
		t.Fatal("acked before the interval was fully processed")
	}
	h.cons.Deliver(&transport.Message{Kind: transport.KindEOS, Exchange: "EX"})
	h.pop(t) // EOS; finishes the in-flight tuple and triggers the ack
	acks := h.ackMessages()
	if len(acks) != 1 || acks[0].Checkpoint != 3 || len(acks[0].Except) != 0 {
		t.Fatalf("acks = %+v", acks)
	}
}

func TestConsumerDiscardReportsAndTaints(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	h.deliver(t, 1, 4, nil, intTuple(1), intTuple(2), intTuple(3), intTuple(4))
	h.pop(t) // tuple 1 in flight
	// Recall everything still queued (seqs 2..4).
	var report map[int][]int64
	h.cons.gate.mu.Lock()
	report = h.cons.discardLocked(nil)
	h.cons.gate.mu.Unlock()
	if len(report[0]) != 3 {
		t.Fatalf("discard report = %v", report)
	}
	// Finish tuple 1; checkpoint 4 completes with the discarded seqs listed
	// as exceptions.
	h.cons.Deliver(&transport.Message{Kind: transport.KindEOS, Exchange: "EX"})
	h.pop(t)
	acks := h.ackMessages()
	if len(acks) != 1 || acks[0].Checkpoint != 4 || len(acks[0].Except) != 3 {
		t.Fatalf("acks = %+v", acks)
	}
}

func TestConsumerDiscardByBucket(t *testing.T) {
	h := newConsumerHarness(t, 1, true)
	h.deliver(t, 1, 0, []int32{3, 5, 3}, intTuple(1), intTuple(2), intTuple(3))
	h.cons.gate.mu.Lock()
	report := h.cons.discardLocked([]int32{3})
	queued := h.cons.queue.len()
	h.cons.gate.mu.Unlock()
	if len(report[0]) != 2 {
		t.Fatalf("bucket discard report = %v", report)
	}
	if queued != 1 {
		t.Fatalf("queued after discard = %d", queued)
	}
}

func TestConsumerStatefulNeverAcks(t *testing.T) {
	h := newConsumerHarness(t, 1, true)
	h.deliver(t, 1, 2, nil, intTuple(1), intTuple(2))
	h.cons.Deliver(&transport.Message{Kind: transport.KindEOS, Exchange: "EX"})
	for {
		if _, ok := h.pop(t); !ok {
			break
		}
	}
	if len(h.ackMessages()) != 0 {
		t.Fatal("stateful consumer acked")
	}
}

// TestConsumerReplayGoesToStateTarget: a replay buffer is queued for the
// state target, not inserted at delivery, and never joins the tuple queue.
// The next pop applies it before it pops a tuple queued after it. A replay
// without a target is an error.
func TestConsumerReplayGoesToStateTarget(t *testing.T) {
	h := newConsumerHarness(t, 1, true)
	target := &fakeStateTarget{cons: h.cons}
	h.cons.SetStateTarget(target)
	msg := &transport.Message{
		Kind: transport.KindData, Exchange: "EX", Replay: true,
		Tuples: []relation.Tuple{intTuple(1), intTuple(2)},
	}
	if err := h.cons.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	if target.inserted != 0 {
		t.Fatal("replay inserted at delivery, off the driver")
	}
	if _, _, queued := h.cons.Stats(); queued != 0 {
		t.Fatal("replay tuples leaked into the queue")
	}
	h.deliver(t, 1, 0, nil, intTuple(7))
	if tp, ok := h.pop(t); !ok || tp[0].AsInt() != 7 {
		t.Fatalf("pop = %v %v, want tuple 7", tp, ok)
	}
	if target.inserted != 2 || target.consumedAt != 0 {
		t.Fatalf("state target received %d tuples with %d consumed, want 2 before the first pop",
			target.inserted, target.consumedAt)
	}
	// Replay without a target is an error.
	h.cons.SetStateTarget(nil)
	if err := h.cons.Deliver(msg); err == nil {
		t.Fatal("replay without state target accepted")
	}
}

// fakeStateTarget counts replayed tuples and notes how many tuples its
// consumer had popped when the last replay arrived.
type fakeStateTarget struct {
	cons       *Consumer
	inserted   int
	consumedAt int64
}

func (f *fakeStateTarget) InsertState(ts []relation.Tuple) {
	f.inserted += len(ts)
	f.consumedAt, _, _ = f.cons.Stats()
}
func (f *fakeStateTarget) EvictBuckets([]int32) {}

func TestConsumerRejectsBadMessages(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	if err := h.cons.Deliver(&transport.Message{Kind: transport.KindAck}); err == nil {
		t.Error("ack accepted by consumer")
	}
	if err := h.cons.Deliver(&transport.Message{Kind: transport.KindData, ProducerIdx: 9}); err == nil {
		t.Error("bad producer index accepted")
	}
}

// TestConsumerRejectsBucketCountMismatch: a data buffer carries one bucket
// per tuple or none. Anything else is refused before it is queued, so a later
// bucket-filtered recall never reads a bucket the buffer did not carry.
func TestConsumerRejectsBucketCountMismatch(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	for _, buckets := range [][]int32{{3}, {3, 5, 7}} {
		msg := &transport.Message{Kind: transport.KindData, Exchange: "EX", StartSeq: 1,
			Tuples: []relation.Tuple{intTuple(1), intTuple(2)}, Buckets: buckets}
		if err := h.cons.Deliver(msg); err == nil {
			t.Errorf("2 tuples with %d buckets accepted", len(buckets))
		}
	}
	if _, _, queued := h.cons.Stats(); queued != 0 {
		t.Fatalf("%d tuples of refused buffers queued", queued)
	}
	h.deliver(t, 1, 0, []int32{3, 5}, intTuple(1), intTuple(2))
	h.cons.gate.mu.Lock()
	report := h.cons.discardLocked([]int32{5})
	h.cons.gate.mu.Unlock()
	if len(report[0]) != 1 || report[0][0] != 2 {
		t.Fatalf("bucket 5 recall reported %v, want seq 2", report)
	}
}

// TestConsumerBacklogAllocatesNoSlots: the queue reads each delivered buffer
// in place, so a backlog of B buffers costs only the growth of the queue's
// and the window's entry slices: O(log B) objects, and less per tuple than
// the 28 bytes a copied tuple costs in slots (its header and its bucket).
// The entry slices come to about 10 bytes per tuple of a 50-tuple buffer.
func TestConsumerBacklogAllocatesNoSlots(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const buffers, size = 4096, 50
	h := newConsumerHarness(t, 1, false)
	tuples := make([]relation.Tuple, size)
	buckets := make([]int32, size)
	for i := range tuples {
		tuples[i] = intTuple(i)
	}
	msg := &transport.Message{Kind: transport.KindData, Exchange: "EX", Tuples: tuples, Buckets: buckets}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for b := 0; b < buffers; b++ {
		msg.StartSeq = int64(1 + size*b)
		if err := h.cons.Deliver(msg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if _, _, queued := h.cons.Stats(); queued != buffers*size {
		t.Fatalf("%d tuples queued, want %d", queued, buffers*size)
	}
	objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if limit := 4 * bits.Len(buffers); objects > uint64(limit) {
		t.Errorf("a backlog of %d buffers allocated %d objects, want at most %d", buffers, objects, limit)
	}
	if perTuple := float64(bytes) / (buffers * size); perTuple >= 28 {
		t.Errorf("a backlog of %d buffers allocated %.1f bytes per tuple (%.0f per buffer): the queue copies its tuples",
			buffers, perTuple, perTuple*size)
	}
}

func TestConsumerBlocksUntilDelivery(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	got := make(chan relation.Tuple, 1)
	go func() {
		tp, _, _ := popOne(h.cons)
		got <- tp
	}()
	select {
	case <-got:
		t.Fatal("Next returned without data")
	case <-time.After(20 * time.Millisecond):
	}
	h.deliver(t, 1, 0, nil, intTuple(42))
	select {
	case tp := <-got:
		if tp[0].AsInt() != 42 {
			t.Fatalf("got %v", tp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next never woke up")
	}
}

func TestConsumerCloseUnblocks(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	done := make(chan bool, 1)
	go func() {
		_, ok, _ := popOne(h.cons)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	_ = h.cons.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next returned a tuple after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock Next")
	}
}

func TestFlowGateQuiesceWaitsForInflight(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	h.deliver(t, 1, 0, nil, intTuple(1), intTuple(2))
	h.pop(t) // tuple 1 now in flight
	quiesced := make(chan struct{})
	go h.cons.gate.quiesce(func() { close(quiesced) })
	select {
	case <-quiesced:
		t.Fatal("quiesce ran with a tuple in flight")
	case <-time.After(20 * time.Millisecond):
	}
	h.pop(t) // finishes tuple 1 (and pops tuple 2 once unpaused)
	select {
	case <-quiesced:
	case <-time.After(2 * time.Second):
		t.Fatal("quiesce never ran")
	}
}
