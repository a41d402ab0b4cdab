package engine

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// exchangeRig is one producer instance feeding consumer instances over an
// in-proc transport on a single simulated node, so links cost nothing. The
// optional hooks see every message before its handler does.
type exchangeRig struct {
	prod *Producer
	cons []*Consumer

	onData func(consumer int, m *transport.Message)
	onAck  func(m *transport.Message)
}

// newExchangeContext returns a one-node network and a driver context on it.
func newExchangeContext() (*simnet.Network, *ExecContext) {
	clock := vtime.NewClock(time.Nanosecond)
	net := simnet.NewNetwork(clock)
	net.AddNode("n")
	return net, &ExecContext{Clock: clock, Node: net.Node("n"), Meter: vtime.NewMeter(clock)}
}

// newExchangeRig wires a producer to consumers instances of one exchange;
// zero buffer and checkpoint sizes take the defaults.
func newExchangeRig(tb testing.TB, net *simnet.Network, ctx *ExecContext, consumers int, pol DistPolicy,
	stateful bool, bufferTuples, checkpointEvery int) *exchangeRig {
	tb.Helper()
	return newExchangeRigFor(tb, net, ctx, consumers, ProducerConfig{
		Stateful: stateful, Policy: pol, BufferTuples: bufferTuples, CheckpointEvery: checkpointEvery,
	})
}

// newExchangeRigFor is newExchangeRig for a producer configured as cfg, whose
// endpoints it fills in.
func newExchangeRigFor(tb testing.TB, net *simnet.Network, ctx *ExecContext, consumers int, cfg ProducerConfig) *exchangeRig {
	tb.Helper()
	tr := transport.NewInProc(net)
	r := &exchangeRig{}
	addrs := make([]Addr, consumers)
	for i := range addrs {
		addrs[i] = Addr{Node: "n", Service: fmt.Sprintf("cons/%d", i)}
	}
	cfg.Exchange, cfg.Fragment, cfg.ConsumerFragment, cfg.Consumers = "EX", "F", "G", addrs
	cfg.Transport, cfg.Node = tr, "n"
	r.prod = NewProducer(cfg)
	r.prod.Bind(ctx)
	stateful := cfg.Stateful
	for i := range addrs {
		c := newConsumer("EX", i, []Addr{{Node: "n", Service: "prod"}}, stateful, newFlowGate(), tr, "n")
		if err := c.Open(ctx); err != nil {
			tb.Fatal(err)
		}
		r.cons = append(r.cons, c)
		tr.Register("n", addrs[i].Service, func(_ simnet.NodeID, m *transport.Message) {
			if r.onData != nil {
				r.onData(i, m)
			}
			if err := c.Deliver(m); err != nil {
				tb.Error(err)
			}
		})
	}
	tr.Register("n", "prod", func(_ simnet.NodeID, m *transport.Message) {
		if r.onAck != nil {
			r.onAck(m)
		}
		r.prod.HandleAck(m)
	})
	return r
}

// transcriptAck is one acknowledgement as the producer received it.
type transcriptAck struct {
	ck     int64
	except []int64
}

// transcriptStream is the script's model of one consumer's stream: enough to
// know how many acknowledgements the consumer owes, and which tuples it
// consumed under which sequence number.
type transcriptStream struct {
	lines       []string
	outstanding map[int64]bool
	cks         []int64
	acks        []transcriptAck
	seqOf       map[int64]int64 // tuple id -> sequence of its latest delivery here
	bucketOf    map[int64]int32
	consumed    [][2]int64 // (id, seq) in pop order
	state       map[int64]int
}

// owed counts the delivered checkpoints with nothing outstanding at or below
// them: each is acknowledged exactly once.
func (s *transcriptStream) owed() int {
	low := int64(-1)
	for seq := range s.outstanding {
		if low < 0 || seq < low {
			low = seq
		}
	}
	n := 0
	for _, ck := range s.cks {
		if low < 0 || ck < low {
			n++
		}
	}
	return n
}

// transcriptHandle pops through a consumer's own handle or a worker handle,
// holding the popped sequences until its next pop or finish.
type transcriptHandle struct {
	name    string
	c       int
	it      Iterator
	finish  func()
	held    []int64
	drained bool
}

type transcriptTarget struct {
	s  *transcriptStream
	mu *sync.Mutex
}

func (t transcriptTarget) InsertState(ts []relation.Tuple) {
	t.mu.Lock()
	for _, tp := range ts {
		t.s.state[tp[0].AsInt()]++
	}
	t.mu.Unlock()
}
func (t transcriptTarget) EvictBuckets([]int32) {}
func (t transcriptTarget) StateSize() int       { return 0 }

func idsDigest(ts []relation.Tuple) string {
	h := fnv.New32a()
	for _, tp := range ts {
		fmt.Fprintf(h, "%d,", tp[0].AsInt())
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// exchangeTranscript runs a seeded script over a real producer and two
// consumers and returns the record of every message the exchange delivered
// plus every pop, with acknowledgements listed per stream in checkpoint
// order once the script has quiesced.
func exchangeTranscript(t *testing.T, seed int64, stateful bool) string {
	rng := rand.New(rand.NewSource(seed))
	pol, err := NewHashPolicy([]int{0}, 16, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	net, ctx := newExchangeContext()
	rig := newExchangeRig(t, net, ctx, 2, pol, stateful, 16, 40)
	var mu sync.Mutex
	streams := make([]*transcriptStream, 2)
	for i := range streams {
		streams[i] = &transcriptStream{outstanding: map[int64]bool{}, seqOf: map[int64]int64{},
			bucketOf: map[int64]int32{}, state: map[int64]int{}}
		if stateful {
			rig.cons[i].SetStateTarget(transcriptTarget{s: streams[i], mu: &mu})
		}
	}
	rig.onData = func(c int, m *transport.Message) {
		mu.Lock()
		defer mu.Unlock()
		s := streams[c]
		s.lines = append(s.lines, fmt.Sprintf("%v p%d c%d start=%d n=%d ids=%s ck=%d replay=%t buckets=%v",
			m.Kind, m.ProducerIdx, m.ConsumerIdx, m.StartSeq, len(m.Tuples), idsDigest(m.Tuples), m.Checkpoint, m.Replay, m.Buckets))
		for i, tp := range m.Tuples {
			id := tp[0].AsInt()
			if m.Buckets != nil {
				s.bucketOf[id] = m.Buckets[i]
			}
			if !m.Replay {
				seq := m.StartSeq + int64(i)
				s.outstanding[seq] = true
				s.seqOf[id] = seq
			}
		}
		if m.Checkpoint > 0 {
			s.cks = append(s.cks, m.Checkpoint)
		}
	}
	rig.onAck = func(m *transport.Message) {
		except := append([]int64(nil), m.Except...)
		sort.Slice(except, func(i, j int) bool { return except[i] < except[j] })
		mu.Lock()
		s := streams[m.ConsumerIdx]
		s.acks = append(s.acks, transcriptAck{ck: m.Checkpoint, except: except})
		mu.Unlock()
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
	var pops []string
	release := func(h *transcriptHandle) {
		mu.Lock()
		for _, seq := range h.held {
			delete(streams[h.c].outstanding, seq)
		}
		h.held = nil
		mu.Unlock()
	}
	batch := relation.NewBatch(128)
	pop := func(h *transcriptHandle) int {
		release(h)
		batch.SetLimit(1 + rng.Intn(128))
		n, err := h.it.NextBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		s := streams[h.c]
		for _, tp := range batch.Tuples[:n] {
			id := tp[0].AsInt()
			seq := s.seqOf[id]
			h.held = append(h.held, seq)
			s.consumed = append(s.consumed, [2]int64{id, seq})
			s.state[id]++
		}
		mu.Unlock()
		pops = append(pops, fmt.Sprintf("pop %s n=%d ids=%s", h.name, n, idsDigest(batch.Tuples[:n])))
		h.drained = n == 0
		return n
	}
	finish := func(h *transcriptHandle) {
		release(h)
		h.finish()
	}
	queued := func(c *Consumer) int { _, _, q := c.Stats(); return q }
	sent := map[int64]int{}
	nextID := int64(0)
	send := func() {
		ts := make([]relation.Tuple, 1+rng.Intn(300))
		for i := range ts {
			nextID++
			ts[i] = relation.Tuple{relation.Int(nextID)}
			sent[nextID]++
		}
		if err := rig.prod.SendBatch(ts, ctx.Meter); err != nil {
			t.Fatal(err)
		}
	}
	traffic := func(steps int, pop1 bool) {
		for i := 0; i < steps; i++ {
			switch r := rng.Intn(10); {
			case r < 4:
				send()
			case r < 6:
				if queued(c0) > 0 {
					pop(handles[0])
				}
			case r < 8 && pop1:
				if h := handles[1+rng.Intn(2)]; queued(c1) > 0 {
					pop(h)
				}
			case pop1: // the two workers finish out of order
				finish(handles[1+rng.Intn(2)])
			}
		}
	}
	settle := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			mu.Lock()
			done := true
			for c, s := range streams {
				if got, want := len(s.acks), s.owed(); got > want {
					mu.Unlock()
					t.Fatalf("consumer %d sent %d acks, owes %d", c, got, want)
				} else if got < want {
					done = false
				}
			}
			mu.Unlock()
			if done {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("acknowledgements never settled")
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
		pops = append(pops, fmt.Sprintf("discard c%d %v -> %v", c.ConsumerIdx, buckets, report))
		return report
	}

	traffic(40, true)
	// An R1 recall: pause, discard the moved buckets, install the map, then
	// resend (stateless) or evict and replay (stateful), and resume.
	for _, h := range handles {
		finish(h)
	}
	if err := rig.prod.Pause(); err != nil {
		t.Fatal(err)
	}
	mirror, _ := NewHashPolicy([]int{0}, 16, []float64{0.5, 0.5})
	moved, err := mirror.SetWeights([]float64{0.8, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	reports := []map[int][]int64{discard(c0, moved), discard(c1, moved)}
	if err := rig.prod.SetOwnerMap(mirror.OwnerMap()); err != nil {
		t.Fatal(err)
	}
	if stateful {
		isMoved := map[int32]bool{}
		for _, b := range moved {
			isMoved[b] = true
		}
		mu.Lock()
		for id := range streams[1].state {
			if isMoved[streams[1].bucketOf[id]] {
				delete(streams[1].state, id)
			}
		}
		mu.Unlock()
		n, err := rig.prod.Replay(moved)
		if err != nil {
			t.Fatal(err)
		}
		pops = append(pops, fmt.Sprintf("replay %v -> %d", moved, n))
	} else {
		for c, rep := range reports {
			if seqs := rep[0]; len(seqs) > 0 {
				n, err := rig.prod.Resend(c, seqs)
				if err != nil {
					t.Fatal(err)
				}
				pops = append(pops, fmt.Sprintf("resend c%d -> %d", c, n))
			}
		}
	}
	rig.prod.Resume()
	traffic(40, true)
	for _, h := range handles[1:] {
		finish(h)
	}
	traffic(20, false)
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
	} else {
		// Consumer 1 dies: its unacknowledged log moves to consumer 0, the
		// tuples it consumed past its last acknowledged checkpoint included.
		settle()
		if err := rig.prod.SetOwnerMap(make([]int32, 16)); err != nil {
			t.Fatal(err)
		}
		n, err := rig.prod.ReplayLost(1)
		if err != nil {
			t.Fatal(err)
		}
		pops = append(pops, fmt.Sprintf("replay-lost c1 -> %d", n))
		for !handles[0].drained {
			pop(handles[0])
		}
		settle()
		mu.Lock()
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
		mu.Unlock()
		compareMultisets(t, got, sent)
	}

	mu.Lock()
	defer mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "# seed %d stateful %t: %d tuples sent\n", seed, stateful, nextID)
	for _, l := range pops {
		b.WriteString(l + "\n")
	}
	for c, s := range streams {
		fmt.Fprintf(&b, "## consumer %d: %d messages\n", c, len(s.lines))
		for _, l := range s.lines {
			b.WriteString(l + "\n")
		}
		acks := append([]transcriptAck(nil), s.acks...)
		sort.Slice(acks, func(i, j int) bool { return acks[i].ck < acks[j].ck })
		fmt.Fprintf(&b, "## consumer %d: %d acks\n", c, len(acks))
		for _, a := range acks {
			fmt.Fprintf(&b, "ack c%d ck=%d except=%v\n", c, a.ck, a.except)
		}
	}
	return b.String()
}

func compareMultisets(t *testing.T, got, want map[int64]int) {
	t.Helper()
	for id, n := range want {
		if got[id] != n {
			t.Fatalf("tuple %d consumed %d times, sent %d", id, got[id], n)
		}
	}
	for id, n := range got {
		if want[id] == 0 {
			t.Fatalf("tuple %d consumed %d times, never sent", id, n)
		}
	}
}

// TestExchangeTranscript pins the exchange protocol at the message level:
// a seeded script over a real producer and two consumers (hash routing,
// batch widths 1–300, one plain handle and two out-of-order worker handles,
// a recall with resend or replay, a dead consumer's replay-lost,
// checkpoint-only messages and EOS) must deliver exactly the messages in the
// golden file, and every tuple sent must be consumed exactly once.
func TestExchangeTranscript(t *testing.T) {
	got := exchangeTranscript(t, 1, false) + exchangeTranscript(t, 2, true)
	raw, err := os.ReadFile("testdata/exchange_transcript.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("transcript differs from the golden file at line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}
