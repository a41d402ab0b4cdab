package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// producerHarness wires a producer to an in-proc transport with a capture
// endpoint per consumer.
type producerHarness struct {
	net  *simnet.Network
	tr   *transport.InProc
	ctx  *ExecContext
	prod *Producer

	mu       sync.Mutex
	received map[int][]*transport.Message // consumerIdx -> messages
}

func newProducerHarness(t *testing.T, consumers int, stateful bool, policy DistPolicy) *producerHarness {
	t.Helper()
	clock := vtime.NewClock(time.Microsecond)
	net := simnet.NewNetwork(clock)
	net.AddNode("src")
	h := &producerHarness{
		net:      net,
		tr:       transport.NewInProc(net),
		received: make(map[int][]*transport.Message),
	}
	addrs := make([]Addr, consumers)
	for i := 0; i < consumers; i++ {
		node := simnet.NodeID(fmt.Sprintf("sink%d", i))
		net.AddNode(node)
		svc := "cons/" + string(rune('0'+i))
		h.tr.Register(node, svc, h.capture(i))
		addrs[i] = Addr{Node: node, Service: svc}
	}
	h.ctx = &ExecContext{
		Clock: clock, Node: net.Node("src"), Meter: vtime.NewMeter(clock),
		Costs: DefaultCosts(), Buckets: 16,
	}
	h.prod = NewProducer(ProducerConfig{
		Exchange: "EX", Fragment: "F", Instance: 0,
		ConsumerFragment: "G", Consumers: addrs, Stateful: stateful,
		Est: 1000, Policy: policy, Transport: h.tr, Node: "src",
		BufferTuples: 4, CheckpointEvery: 8,
	})
	h.prod.Bind(h.ctx)
	return h
}

// capture is consumer i's endpoint handler.
func (h *producerHarness) capture(i int) transport.Handler {
	return func(_ simnet.NodeID, m *transport.Message) {
		// The producer recycles data frames once Send returns, so the
		// harness snapshots the message instead of retaining it — the
		// same no-retention contract real consumers follow.
		cp := *m
		cp.Tuples = append([]relation.Tuple(nil), m.Tuples...)
		cp.Buckets = append([]int32(nil), m.Buckets...)
		h.mu.Lock()
		h.received[i] = append(h.received[i], &cp)
		h.mu.Unlock()
	}
}

func (h *producerHarness) messages(consumer int) []*transport.Message {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*transport.Message(nil), h.received[consumer]...)
}

func intTuple(i int) relation.Tuple { return relation.Tuple{relation.Int(int64(i))} }

func TestProducerBuffersAndCheckpoints(t *testing.T) {
	pol, _ := NewWeightedPolicy([]float64{1})
	h := newProducerHarness(t, 1, false, pol)
	for i := 0; i < 10; i++ {
		if err := h.prod.SendBatch([]relation.Tuple{intTuple(i)}, h.ctx.Meter); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.prod.Close(); err != nil {
		t.Fatal(err)
	}
	msgs := h.messages(0)
	// 10 tuples in buffers of 4: data(4), data(4 ckpt@8), data(2), then a
	// checkpoint-only finaliser and, once acked... EOS deferred (no acks in
	// this harness).
	var dataCount, tuples int
	var ckpts []int64
	for _, m := range msgs {
		if m.Kind == transport.KindData {
			dataCount++
			tuples += len(m.Tuples)
			if m.Checkpoint > 0 {
				ckpts = append(ckpts, m.Checkpoint)
			}
		}
	}
	if tuples != 10 {
		t.Fatalf("tuples delivered = %d", tuples)
	}
	if len(ckpts) != 2 || ckpts[0] != 8 || ckpts[1] != 10 {
		t.Fatalf("checkpoints = %v, want [8 10]", ckpts)
	}
	// EOS must NOT have been sent: the log has unacked entries.
	for _, m := range msgs {
		if m.Kind == transport.KindEOS {
			t.Fatal("EOS sent with a non-empty recovery log")
		}
	}
	// Ack everything; EOS follows.
	h.prod.HandleAck(&transport.Message{Kind: transport.KindAck, ConsumerIdx: 0, Checkpoint: 10})
	var sawEOS bool
	for _, m := range h.messages(0) {
		if m.Kind == transport.KindEOS {
			sawEOS = true
		}
	}
	if !sawEOS {
		t.Fatal("EOS not sent after the log drained")
	}
	if _, _, logSize := h.prod.Stats(); logSize != 0 {
		t.Fatalf("log size = %d after full ack", logSize)
	}
}

func TestProducerAckExclusionKeepsRecalledEntries(t *testing.T) {
	pol, _ := NewWeightedPolicy([]float64{1})
	h := newProducerHarness(t, 1, false, pol)
	for i := 0; i < 8; i++ {
		_ = h.prod.SendBatch([]relation.Tuple{intTuple(i)}, h.ctx.Meter)
	}
	_ = h.prod.Close()
	// Ack checkpoint 8 but except seqs 3 and 4 (recalled by a consumer).
	h.prod.HandleAck(&transport.Message{
		Kind: transport.KindAck, ConsumerIdx: 0, Checkpoint: 8, Except: []int64{3, 4},
	})
	if _, _, logSize := h.prod.Stats(); logSize != 2 {
		t.Fatalf("log size = %d, want 2 (excepted entries retained)", logSize)
	}
	// Resend migrates them; log drains; EOS fires.
	n, err := h.prod.Resend(0, []int64{3, 4})
	if err != nil || n != 2 {
		t.Fatalf("Resend = %d, %v", n, err)
	}
	// The re-routed tuples got fresh seqs 9,10 on the same stream; ack them.
	h.prod.HandleAck(&transport.Message{Kind: transport.KindAck, ConsumerIdx: 0, Checkpoint: 10})
	if _, _, logSize := h.prod.Stats(); logSize != 0 {
		t.Fatalf("log size = %d after migrating recalled entries", logSize)
	}
}

func TestProducerStatefulNeverAcks(t *testing.T) {
	pol, err := NewHashPolicy([]int{0}, 16, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	h := newProducerHarness(t, 2, true, pol)
	for i := 0; i < 20; i++ {
		_ = h.prod.SendBatch([]relation.Tuple{intTuple(i)}, h.ctx.Meter)
	}
	if err := h.prod.Close(); err != nil {
		t.Fatal(err)
	}
	h.prod.HandleAck(&transport.Message{Kind: transport.KindAck, ConsumerIdx: 0, Checkpoint: 100})
	if _, _, logSize := h.prod.Stats(); logSize != 20 {
		t.Fatalf("stateful log = %d, want 20 (acks ignored)", logSize)
	}
	// Stateful EOS is immediate at Close (the consumer's build phase ends).
	eos := 0
	for c := 0; c < 2; c++ {
		for _, m := range h.messages(c) {
			if m.Kind == transport.KindEOS {
				eos++
			}
		}
	}
	if eos != 2 {
		t.Fatalf("EOS count = %d, want 2", eos)
	}
	h.prod.Release()
	if _, _, logSize := h.prod.Stats(); logSize != 0 {
		t.Fatal("Release did not drop the log")
	}
}

func TestProducerPauseBlocksSend(t *testing.T) {
	pol, _ := NewWeightedPolicy([]float64{1})
	h := newProducerHarness(t, 1, false, pol)
	if err := h.prod.Pause(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		_ = h.prod.SendBatch([]relation.Tuple{intTuple(1)}, h.ctx.Meter)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Send completed while paused")
	case <-time.After(30 * time.Millisecond):
	}
	h.prod.Resume()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Send never resumed")
	}
}

func TestProducerReplayRoutesByNewMap(t *testing.T) {
	pol, err := NewHashPolicy([]int{0}, 16, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	h := newProducerHarness(t, 2, true, pol)
	for i := 0; i < 12; i++ {
		_ = h.prod.SendBatch([]relation.Tuple{intTuple(i)}, h.ctx.Meter)
	}
	_ = h.prod.Close()
	if got := len(h.messages(1)); got > 1 { // EOS only
		t.Fatalf("consumer 1 received %d messages under weights (1,0)", got)
	}
	// Move every bucket to consumer 1 and replay.
	newMap := make([]int32, 16)
	for i := range newMap {
		newMap[i] = 1
	}
	if err := h.prod.SetOwnerMap(newMap); err != nil {
		t.Fatal(err)
	}
	moved := make([]int32, 16)
	for i := range moved {
		moved[i] = int32(i)
	}
	n, err := h.prod.Replay(moved)
	if err != nil || n != 12 {
		t.Fatalf("Replay = %d, %v; want 12", n, err)
	}
	replayTuples := 0
	for _, m := range h.messages(1) {
		if m.Kind == transport.KindData && m.Replay {
			replayTuples += len(m.Tuples)
		}
	}
	if replayTuples != 12 {
		t.Fatalf("replayed tuples at new owner = %d, want 12", replayTuples)
	}
	// Log entries migrated to consumer 1's stream.
	if _, _, logSize := h.prod.Stats(); logSize != 12 {
		t.Fatalf("log = %d after replay (stateful retains)", logSize)
	}
}

// TestProducerReplayUnknownSeq: a replay entry whose tuple is no longer in
// the log fails the call with an error naming the exchange and sequence,
// before anything is routed, instead of handing its new owner a nil tuple.
func TestProducerReplayUnknownSeq(t *testing.T) {
	pol, err := NewHashPolicy([]int{0}, 16, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	h := newProducerHarness(t, 2, true, pol)
	for i := 0; i < 6; i++ {
		_ = h.prod.SendBatch([]relation.Tuple{intTuple(i)}, h.ctx.Meter)
	}
	_ = h.prod.Close()
	before := [2]int{len(h.messages(0)), len(h.messages(1))}
	routed, buffers, logSize := h.prod.Stats()

	h.prod.barrier.lockExclusive()
	n, err := h.prod.replayEntries([]logEntry{{consumer: 0, seq: 99}, {consumer: 0, seq: 1}})
	h.prod.barrier.unlockExclusive()
	if err == nil || !strings.Contains(err.Error(), "EX") || !strings.Contains(err.Error(), "seq 99") {
		t.Fatalf("replay of a missing entry: err = %v, want one naming exchange EX and seq 99", err)
	}
	if n != 0 {
		t.Fatalf("replay routed %d tuples before failing, want 0", n)
	}
	if after := [2]int{len(h.messages(0)), len(h.messages(1))}; after != before {
		t.Fatalf("consumers received %v messages after the failed replay, want %v", after, before)
	}
	if r, b, l := h.prod.Stats(); r != routed || b != buffers || l != logSize {
		t.Fatalf("stats moved from %d/%d/%d to %d/%d/%d", routed, buffers, logSize, r, b, l)
	}
}

func TestProducerResendUnknownSeq(t *testing.T) {
	pol, _ := NewWeightedPolicy([]float64{1})
	h := newProducerHarness(t, 1, false, pol)
	_ = h.prod.SendBatch([]relation.Tuple{intTuple(1)}, h.ctx.Meter)
	if _, err := h.prod.Resend(0, []int64{99}); err == nil {
		t.Fatal("resend of unknown seq accepted")
	}
}

func TestProducerProgressAndCounts(t *testing.T) {
	pol, _ := NewWeightedPolicy([]float64{0.5, 0.5})
	h := newProducerHarness(t, 2, false, pol)
	for i := 0; i < 6; i++ {
		_ = h.prod.SendBatch([]relation.Tuple{intTuple(i)}, h.ctx.Meter)
	}
	routed, est := h.prod.Progress()
	if routed != 6 || est != 1000 {
		t.Fatalf("Progress = %d/%d", routed, est)
	}
	counts := h.prod.ConsumerTupleCounts()
	if counts[0]+counts[1] != 6 || counts[0] != 3 {
		t.Fatalf("counts = %v", counts)
	}
}

// eosTo reports whether the consumer received end-of-stream.
func (h *producerHarness) eosTo(consumer int) bool {
	for _, m := range h.messages(consumer) {
		if m.Kind == transport.KindEOS {
			return true
		}
	}
	return false
}

func TestProducerPeerLoss(t *testing.T) {
	// Every buffer is flushed before the machine dies (8 tuples, 4 per
	// consumer, buffers of 4), so the first send to find it gone is the
	// end-of-stream of a stateful exchange or the closing checkpoint of a
	// stateless one — not a data flush.
	for _, tc := range []struct {
		name     string
		ft       bool
		stateful bool
		kill     simnet.NodeID
		wantErr  bool
	}{
		{name: "fault-tolerant, stateful: EOS finds the consumer gone", ft: true, stateful: true, kill: "sink1"},
		{name: "fault-tolerant, stateless: the checkpoint finds the consumer gone", ft: true, kill: "sink1"},
		{name: "not fault-tolerant", stateful: true, kill: "sink1", wantErr: true},
		// Consumer 0 shares the producer's machine, so the error names the
		// consumer's node too; it is still the producer's own loss.
		{name: "the producer's own machine is the one down", ft: true, stateful: true, kill: "src", wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol, _ := NewWeightedPolicy([]float64{0.5, 0.5})
			h := newProducerHarness(t, 2, tc.stateful, pol)
			if tc.kill == "src" {
				h.tr.Register("src", "cons/0", h.capture(0))
				h.prod.Consumers[0] = Addr{Node: "src", Service: "cons/0"}
			}
			var peersDown []simnet.NodeID
			if tc.ft {
				h.prod.SetFaultTolerant(false, func(n simnet.NodeID) { peersDown = append(peersDown, n) })
			}
			batch := make([]relation.Tuple, 8)
			for i := range batch {
				batch[i] = intTuple(i)
			}
			if err := h.prod.SendBatch(batch, h.ctx.Meter); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 2; c++ {
				if got := len(h.messages(c)); got != 1 {
					t.Fatalf("consumer %d got %d buffers before the loss, want 1", c, got)
				}
			}
			h.net.Node(tc.kill).Fail()

			err := h.prod.Close()
			if tc.wantErr {
				var down *transport.NodeDownError
				if !errors.As(err, &down) || down.Node != tc.kill {
					t.Fatalf("Close = %v, want the transport error naming %s", err, tc.kill)
				}
				if len(peersDown) != 0 {
					t.Fatalf("onPeerDown called with %v", peersDown)
				}
				return
			}
			if err != nil {
				t.Fatalf("Close = %v, want the dead consumer detached", err)
			}
			if !h.prod.shards[1].dead {
				t.Fatal("the dead consumer's shard is still live")
			}
			if len(peersDown) != 1 || peersDown[0] != "sink1" {
				t.Fatalf("onPeerDown calls = %v, want [sink1]", peersDown)
			}
			if !tc.stateful {
				// The dead shard's log holds back EOS until failover drains it
				// onto the survivor, which then acknowledges everything.
				if h.eosTo(0) {
					t.Fatal("EOS sent while the dead shard's log is undrained")
				}
				if err := h.prod.SetWeights([]float64{1, 0}); err != nil {
					t.Fatal(err)
				}
				if n, err := h.prod.ReplayLost(1); err != nil || n != 4 {
					t.Fatalf("ReplayLost = %d, %v; want 4", n, err)
				}
				h.prod.HandleAck(&transport.Message{Kind: transport.KindAck, ConsumerIdx: 0, Checkpoint: 8})
			}
			if !h.eosTo(0) {
				t.Fatal("the surviving consumer never got EOS")
			}
			if len(peersDown) != 1 {
				t.Fatalf("onPeerDown calls = %v, want exactly one", peersDown)
			}
		})
	}
}
