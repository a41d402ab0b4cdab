package transport

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func sampleMessages() []*Message {
	return []*Message{
		{Kind: KindEOS, Exchange: "E1", ProducerIdx: 2, ConsumerIdx: 1},
		{
			Kind: KindData, Exchange: "E2", ProducerIdx: 0, ConsumerIdx: 3,
			Epoch: 5, StartSeq: 100, Checkpoint: 149, Replay: true,
			Tuples: []relation.Tuple{
				{relation.String("ORF1"), relation.Int(42)},
				{relation.Float(2.5), relation.Null},
			},
			Buckets: []int32{7, 300},
		},
		{Kind: KindAck, Exchange: "E1", ConsumerIdx: 1, Checkpoint: 50,
			Except: []int64{12, 17, 23}},
		{
			Kind: KindControl, Exchange: "E1",
			Ctrl: &Ctrl{
				Op: CtrlDiscard, RequestID: 99, ReplyTo: "coord",
				ReplyService: "aqp/responder@coord",
				Buckets:      []int32{1, 2, 3},
				Epoch:        7,
			},
		},
		{
			Kind: KindReply,
			Ctrl: &Ctrl{
				Op: CtrlDiscard, RequestID: 99, OK: true,
				DiscardedSeqs: map[string][]int64{"E1/0": {5, 6}, "E1/2": {11}},
			},
		},
		{
			Kind: KindControl,
			Ctrl: &Ctrl{
				Op: CtrlSetWeights, RequestID: 1,
				Weights: []float64{0.75, 0.25}, OK: false, Err: "nope",
				Routed: 1234, Est: 3000,
				BucketMap: []int32{0, 1, 0, 1},
				Seqs:      []int64{9, 8, 7},
			},
		},
		{
			Kind: KindControl, Exchange: "E1",
			Ctrl: &Ctrl{
				Op: CtrlAttach, RequestID: 7, ReplyTo: "coord", ReplyService: "aqp/responder@coord",
				Peer: 2, PeerNode: "ws2", PeerService: "q4.f1/2",
				Weights: []float64{0.4, 0.3, 0.3},
			},
		},
		{
			Kind: KindControl, Exchange: "E1",
			Ctrl: &Ctrl{Op: CtrlReplayLost, RequestID: 8, ReplyTo: "coord", Peer: 1},
		},
		{
			Kind: KindDeploy, Query: "select p.ORF from protein_sequences p",
			Ctrl: &Ctrl{RequestID: 3, ReplyTo: "coord", ReplyService: "deploy-reply/3"},
		},
		{Kind: KindMonitor, Mon: &Monitor{
			Fragment: "F2", Instance: 1, Node: "ws1",
			CostMs: 1.25, WaitMs: 0.5, Selectivity: 0.875, Produced: 640,
		}},
		{Kind: KindMonitor, Mon: &Monitor{
			IsM2: true, Fragment: "F1", Node: "data1",
			ConsumerFragment: "F2", ConsumerInstance: 1, ConsumerNode: "ws1",
			SendCostMs: 3.5, TupleCount: 100,
		}},
	}
}

func TestWireRoundTrip(t *testing.T) {
	for i, m := range sampleMessages() {
		enc := MarshalMessage(m)
		dec, err := UnmarshalMessage(enc)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !messagesEqual(m, dec) {
			t.Fatalf("message %d round trip:\n in: %+v\nout: %+v", i, m, dec)
		}
	}
}

// messagesEqual compares two messages field by field, without going through
// the codec under test: nil and empty slices and maps are equal, floats are
// equal bit for bit (so NaNs compare), values must agree in type.
func messagesEqual(a, b *Message) bool {
	if a.Kind != b.Kind || a.Exchange != b.Exchange ||
		a.ProducerIdx != b.ProducerIdx || a.ConsumerIdx != b.ConsumerIdx ||
		a.Epoch != b.Epoch || a.StartSeq != b.StartSeq ||
		a.Checkpoint != b.Checkpoint || a.Replay != b.Replay || a.Query != b.Query {
		return false
	}
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if !tuplesEqual(a.Tuples[i], b.Tuples[i]) {
			return false
		}
	}
	if !int32sEqual(a.Buckets, b.Buckets) || !int64sEqual(a.Except, b.Except) {
		return false
	}
	if (a.Mon == nil) != (b.Mon == nil) || (a.Ctrl == nil) != (b.Ctrl == nil) {
		return false
	}
	if a.Mon != nil {
		am, bm := *a.Mon, *b.Mon
		if am.IsM2 != bm.IsM2 || am.Fragment != bm.Fragment || am.Instance != bm.Instance ||
			am.Node != bm.Node || am.Produced != bm.Produced ||
			am.ConsumerFragment != bm.ConsumerFragment || am.ConsumerInstance != bm.ConsumerInstance ||
			am.ConsumerNode != bm.ConsumerNode || am.TupleCount != bm.TupleCount ||
			!float64sEqual([]float64{am.CostMs, am.WaitMs, am.Selectivity, am.SendCostMs},
				[]float64{bm.CostMs, bm.WaitMs, bm.Selectivity, bm.SendCostMs}) {
			return false
		}
	}
	if a.Ctrl != nil {
		ac, bc := *a.Ctrl, *b.Ctrl
		if ac.Op != bc.Op || ac.RequestID != bc.RequestID || ac.ReplyTo != bc.ReplyTo ||
			ac.ReplyService != bc.ReplyService || ac.Epoch != bc.Epoch ||
			ac.Peer != bc.Peer || ac.PeerNode != bc.PeerNode || ac.PeerService != bc.PeerService ||
			ac.OK != bc.OK || ac.Err != bc.Err || ac.Routed != bc.Routed || ac.Est != bc.Est {
			return false
		}
		if len(ac.DiscardedSeqs) != len(bc.DiscardedSeqs) {
			return false
		}
		for k, seqs := range ac.DiscardedSeqs {
			other, ok := bc.DiscardedSeqs[k]
			if !ok || !int64sEqual(seqs, other) {
				return false
			}
		}
		if !float64sEqual(ac.Weights, bc.Weights) || !int32sEqual(ac.BucketMap, bc.BucketMap) ||
			!int32sEqual(ac.Buckets, bc.Buckets) || !int64sEqual(ac.Seqs, bc.Seqs) {
			return false
		}
	}
	return true
}

func tuplesEqual(a, b relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type() != b[i].Type() {
			return false
		}
		switch a[i].Type() {
		case relation.TInt:
			if a[i].AsInt() != b[i].AsInt() {
				return false
			}
		case relation.TFloat:
			if math.Float64bits(a[i].AsFloat()) != math.Float64bits(b[i].AsFloat()) {
				return false
			}
		case relation.TString:
			if a[i].AsString() != b[i].AsString() {
				return false
			}
		}
	}
	return true
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func float64sEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestWireRejectsGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		b := make([]byte, r.Intn(60))
		r.Read(b)
		// Must never panic; errors are fine.
		_, _ = UnmarshalMessage(b)
	}
	if _, err := UnmarshalMessage(nil); err == nil {
		t.Error("nil input accepted")
	}
	good := MarshalMessage(&Message{Kind: KindEOS})
	if _, err := UnmarshalMessage(append(good, 0xff)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := UnmarshalMessage(good[:len(good)-1]); err == nil {
		t.Error("truncated input accepted")
	}
}

// randomValue draws one value of any of the codec's four kinds.
func randomValue(r *rand.Rand) relation.Value {
	switch r.Intn(4) {
	case 0:
		return relation.Null
	case 1:
		return relation.Int(r.Int63() - r.Int63())
	case 2:
		return relation.Float(math.Float64frombits(r.Uint64()))
	default:
		b := make([]byte, r.Intn(200)) // lengths on both sides of the one-byte varint
		r.Read(b)
		return relation.String(string(b))
	}
}

// randomDataMessage builds a data message of n tuples whose widths (zero
// included) and value kinds are mixed.
func randomDataMessage(r *rand.Rand, n int) *Message {
	m := &Message{
		Kind:        KindData,
		Exchange:    "E",
		ProducerIdx: r.Intn(8),
		ConsumerIdx: r.Intn(8),
		StartSeq:    r.Int63n(1 << 40),
		Checkpoint:  r.Int63n(1 << 40),
	}
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, r.Intn(5))
		for j := range t {
			t[j] = randomValue(r)
		}
		m.Tuples = append(m.Tuples, t)
		m.Buckets = append(m.Buckets, int32(r.Intn(512)))
	}
	return m
}

func TestWireRandomDataMessages(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomDataMessage(r, r.Intn(2*relation.DefaultBatchSize))
		m.Kind = Kind(1 + r.Intn(5))
		dec, err := UnmarshalMessage(MarshalMessage(m))
		return err == nil && messagesEqual(m, dec)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalMessageArenaEquivalent(t *testing.T) {
	msgs := sampleMessages()
	r := rand.New(rand.NewSource(11))
	// No tuples, a few, more than one operator batch, and more than the
	// decoder's capped initial capacity (the tuple slice grows mid-message).
	for _, n := range []int{0, 1, 19, 3*relation.DefaultBatchSize + 7, maxWirePrealloc + 5} {
		msgs = append(msgs, randomDataMessage(r, n))
	}
	var a relation.Arena
	for i, m := range msgs {
		enc := MarshalMessage(m)
		plain, err := UnmarshalMessage(enc)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		arena, err := UnmarshalMessageArena(&a, enc)
		if err != nil {
			t.Fatalf("message %d (arena): %v", i, err)
		}
		// messagesEqual, not reflect.DeepEqual: the random floats include NaNs.
		if !messagesEqual(m, plain) {
			t.Fatalf("message %d: decode differs from the original", i)
		}
		if !messagesEqual(plain, arena) {
			t.Fatalf("message %d: arena decode differs:\n%+v\n%+v", i, plain, arena)
		}
	}
}

// TestWireTruncatedAtEveryOffset cuts a mixed data message and a control
// message short at every byte: each prefix must be refused as ErrWire — no
// panic, no partially filled message — with and without a caller arena.
func TestWireTruncatedAtEveryOffset(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	msgs := append(sampleMessages(), randomDataMessage(r, 40))
	var a relation.Arena
	for i, m := range msgs {
		enc := MarshalMessage(m)
		for cut := 0; cut < len(enc); cut++ {
			for _, arena := range []*relation.Arena{nil, &a} {
				dec, err := UnmarshalMessageArena(arena, enc[:cut])
				if !errors.Is(err, ErrWire) {
					t.Fatalf("message %d cut at %d of %d: err = %v, want ErrWire", i, cut, len(enc), err)
				}
				if dec != nil {
					t.Fatalf("message %d cut at %d: partial message returned", i, cut)
				}
			}
		}
	}
}

// FuzzUnmarshalMessage: no input makes the decoder panic, and whatever it
// accepts survives a re-encode: the decoded message marshals to bytes that
// decode to an equal message.
func FuzzUnmarshalMessage(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(MarshalMessage(m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalMessage(data)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("decode error outside ErrWire: %v", err)
			}
			return
		}
		again, err := UnmarshalMessage(MarshalMessage(m))
		if err != nil {
			t.Fatalf("re-encoded message refused: %v", err)
		}
		if !messagesEqual(m, again) {
			t.Fatalf("re-encode changed the message:\n%+v\n%+v", m, again)
		}
	})
}
