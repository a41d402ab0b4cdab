package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

func newTestNet() *simnet.Network {
	net := simnet.NewNetwork(vtime.NewClock(10 * time.Microsecond))
	net.AddNode("a")
	net.AddNode("b")
	return net
}

func TestInProcDelivery(t *testing.T) {
	tr := NewInProc(newTestNet())
	var got *Message
	var from simnet.NodeID
	tr.Register("b", "frag/F2#0", func(f simnet.NodeID, m *Message) {
		from, got = f, m
	})
	msg := &Message{
		Kind:     KindData,
		Exchange: "E1",
		StartSeq: 7,
		Tuples:   []relation.Tuple{{relation.Int(1)}, {relation.Int(2)}},
	}
	cost, err := tr.Send("a", "b", "frag/F2#0", msg)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || from != "a" || got.StartSeq != 7 || len(got.Tuples) != 2 {
		t.Fatalf("delivered %+v from %q", got, from)
	}
	if cost <= 0 {
		t.Errorf("cost = %v, want > 0 (cross-node)", cost)
	}
}

func TestInProcUnknownEndpoint(t *testing.T) {
	tr := NewInProc(newTestNet())
	if _, err := tr.Send("a", "b", "nope", &Message{Kind: KindEOS}); err == nil {
		t.Fatal("expected error")
	}
}

func TestInProcUnregister(t *testing.T) {
	tr := NewInProc(newTestNet())
	tr.Register("b", "s", func(simnet.NodeID, *Message) {})
	tr.Unregister("b", "s")
	if _, err := tr.Send("a", "b", "s", &Message{Kind: KindEOS}); err == nil {
		t.Fatal("expected error after Unregister")
	}
}

func TestInProcSameNodeIsFree(t *testing.T) {
	tr := NewInProc(newTestNet())
	tr.Register("a", "s", func(simnet.NodeID, *Message) {})
	cost, err := tr.Send("a", "a", "s", &Message{Kind: KindData})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Errorf("loopback cost = %v, want 0 (paper: same-machine communication cost is zero)", cost)
	}
}

func TestInProcCostScalesWithSize(t *testing.T) {
	tr := NewInProc(newTestNet())
	tr.Register("b", "s", func(simnet.NodeID, *Message) {})
	small := &Message{Kind: KindData}
	bigTuples := make([]relation.Tuple, 500)
	for i := range bigTuples {
		bigTuples[i] = relation.Tuple{relation.String("MALSTQWKDEFGHIRNPVYCMALSTQWKDEFGHIRNPVYC")}
	}
	big := &Message{Kind: KindData, Tuples: bigTuples}
	cSmall, _ := tr.Send("a", "b", "s", small)
	cBig, _ := tr.Send("a", "b", "s", big)
	if cBig <= cSmall {
		t.Errorf("big buffer cost %v should exceed small %v", cBig, cSmall)
	}
}

func TestInProcConcurrentSend(t *testing.T) {
	tr := NewInProc(newTestNet())
	var mu sync.Mutex
	count := 0
	tr.Register("b", "s", func(simnet.NodeID, *Message) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := tr.Send("a", "b", "s", &Message{Kind: KindData}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if count != 400 {
		t.Fatalf("delivered %d, want 400", count)
	}
}

func TestWireSize(t *testing.T) {
	m := &Message{Kind: KindData}
	base := m.WireSize()
	if base <= 0 {
		t.Fatal("empty message should still cost an envelope")
	}
	m.Tuples = []relation.Tuple{{relation.String("abcd")}}
	m.Buckets = []int32{3}
	if m.WireSize() <= base {
		t.Error("tuples must add size")
	}
	c := &Message{Kind: KindControl, Ctrl: &Ctrl{
		Op: CtrlDiscard, Weights: []float64{0.5, 0.5},
		DiscardedSeqs: map[string][]int64{"E1/0": {1, 2, 3}},
	}}
	if c.WireSize() <= base {
		t.Error("ctrl must add size")
	}
}

func TestKindAndOpStrings(t *testing.T) {
	kinds := map[Kind]string{KindData: "data", KindEOS: "eos", KindAck: "ack",
		KindControl: "control", KindReply: "reply", Kind(0): "invalid"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q", k, k.String())
		}
	}
	ops := map[CtrlOp]string{CtrlPause: "pause", CtrlResume: "resume",
		CtrlSetWeights: "set-weights", CtrlSetBucketMap: "set-bucket-map",
		CtrlDiscard: "discard", CtrlEvict: "evict", CtrlReplay: "replay",
		CtrlResend: "resend", CtrlProgress: "progress", CtrlOp(0): "invalid"}
	for o, want := range ops {
		if o.String() != want {
			t.Errorf("CtrlOp(%d) = %q", o, o.String())
		}
	}
}

// releaseCounter counts the releases of a message's slots.
type releaseCounter int

func (r *releaseCounter) Release() { *r++ }

// TestSendReleasesSlots: a send that delivers in process hands the tuple
// buffer to the handler; a send that fails before delivery releases it, and
// a remote TCP send releases it once the frame holds the encoded tuples.
func TestSendReleasesSlots(t *testing.T) {
	var n releaseCounter
	data := func() *Message {
		return &Message{Kind: KindData, Tuples: []relation.Tuple{{relation.Int(1)}}, Slots: &n}
	}
	expect := func(want releaseCounter, what string) {
		t.Helper()
		if n != want {
			t.Fatalf("%s: %d releases, want %d", what, n, want)
		}
	}
	network := newTestNet()
	ip := NewInProc(network)
	var kept *Message
	ip.Register("b", "s", func(_ simnet.NodeID, m *Message) { kept = m })
	if _, err := ip.Send("a", "b", "s", data()); err != nil {
		t.Fatal(err)
	}
	expect(0, "in-proc delivery")
	kept.ReleaseSlots()
	kept.ReleaseSlots()
	expect(1, "the handler releasing twice through the message")
	if _, err := ip.Send("a", "b", "nope", data()); err == nil {
		t.Fatal("send to an unknown endpoint accepted")
	}
	expect(2, "an unknown in-proc endpoint")
	network.Node("b").Fail()
	if _, err := ip.Send("a", "b", "s", data()); err == nil {
		t.Fatal("send to a dead node accepted")
	}
	network.Node("a").Fail()
	if _, err := ip.Send("a", "b", "s", data()); err == nil {
		t.Fatal("send from a dead node accepted")
	}
	expect(4, "dead in-proc nodes")

	a, b := tcpPair(t)
	got := make(chan *Message, 1)
	b.Register("nodeB", "s", func(_ simnet.NodeID, m *Message) { got <- m })
	if _, err := a.Send("nodeA", "nodeB", "s", data()); err != nil {
		t.Fatal(err)
	}
	expect(5, "a remote TCP send")
	if m := <-got; m.Slots != nil || len(m.Tuples) != 1 {
		t.Fatalf("decoded %+v", m)
	}
	if _, err := a.Send("nodeA", "nodeC", "s", data()); err == nil {
		t.Fatal("send to an unknown peer accepted")
	}
	if _, err := a.Send("nodeA", "nodeA", "missing", data()); err == nil {
		t.Fatal("send to a missing local service accepted")
	}
	expect(7, "failed TCP sends")
}
