package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/transport"
)

// The two model tests below drive the buffer-granular recovery log and the
// consumer's queue and low-water-mark window through seeded random
// interleavings and compare them, after every step, with the per-tuple map
// bookkeeping of the original design (kept here, verbatim in behaviour, as
// the reference). The generators stay inside what the protocol can produce:
// a stream delivers in sequence order.

func TestSeqQueueRecyclesChunks(t *testing.T) {
	q := seqQueue[int]{base: 7}
	for round := 0; round < 5; round++ {
		for i := 0; i < 3*seqChunk+5; i++ {
			q.push(round*10000 + i)
		}
		for i := 0; i < 3*seqChunk+5; i++ {
			if *q.at(q.base) != round*10000+i {
				t.Fatalf("round %d: front = %d, want %d", round, *q.at(q.base), round*10000+i)
			}
			q.popFront()
		}
		if q.len() != 0 {
			t.Fatalf("round %d: drained queue holds %d entries", round, q.len())
		}
	}
	if q.next() != 7+5*(3*seqChunk+5) {
		t.Fatalf("next = %d after %d pushes from base 7", q.next(), 5*(3*seqChunk+5))
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// A steady exchange stream (the consumer keeps up) allocates nothing:
	// buffers are logged, sent, queued, popped, acknowledged and released
	// in recycled storage.
	pol, err := NewWeightedPolicy([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	net, ctx := newExchangeContext()
	rig := newExchangeRig(t, net, ctx, 1, pol, false, 0, 0)
	tuples := make([]relation.Tuple, DefaultBufferTuples)
	for i := range tuples {
		tuples[i] = intTuple(i)
	}
	batch := relation.NewBatch(DefaultBufferTuples)
	step := func() {
		if err := rig.prod.SendBatch(tuples, ctx.Meter); err != nil {
			t.Fatal(err)
		}
		if n, err := rig.cons[0].NextBatch(batch); err != nil || n != len(tuples) {
			t.Fatalf("popped %d tuples, %v", n, err)
		}
	}
	// Each run streams 500 buffers, several chunks' worth, so that even one
	// allocation per chunk turned over would show.
	steps := func() {
		for i := 0; i < 500; i++ {
			step()
		}
	}
	steps()
	if a := testing.AllocsPerRun(5, steps); a != 0 {
		t.Fatalf("a steady stream allocates %.0f times per 500 buffers", a)
	}
	if _, _, logged := rig.prod.Stats(); logged > DefaultBufferTuples {
		t.Fatalf("%d tuples still logged; the acknowledgements did not release them", logged)
	}
}

// modelEntry is one logged or queued tuple of the per-tuple models.
type modelEntry struct {
	producer int
	seq      int64
	bucket   int32
	tuple    relation.Tuple
}

// mapLog is the recovery log as the parent kept it.
type mapLog struct {
	m    map[int64]modelEntry
	next int64
}

func (l *mapLog) append(t relation.Tuple, bucket int32) int64 {
	seq := l.next
	l.next++
	l.m[seq] = modelEntry{tuple: t, bucket: bucket}
	return seq
}

func (l *mapLog) ack(ck int64, except []int64) {
	keep := make(map[int64]bool, len(except))
	for _, s := range except {
		keep[s] = true
	}
	for seq := range l.m {
		if seq <= ck && !keep[seq] {
			delete(l.m, seq)
		}
	}
}

func (l *mapLog) sortedSeqs() []int64 {
	seqs := make([]int64, 0, len(l.m))
	for seq := range l.m {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

func TestRecoveryLogMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		log := recoveryLog{seq: 1}
		model := &mapLog{m: map[int64]modelEntry{}, next: 1}
		id := 0
		// The producer closes a buffer when it is full or flushed: here at
		// every 16th sequence and at the end of every operation.
		appendBoth := func(tp relation.Tuple, bucket int32) {
			if a, b := log.append(tp, bucket), model.append(tp, bucket); a != b {
				t.Fatalf("seed %d: append assigned seq %d, model %d", seed, a, b)
			}
			if log.seq%16 == 0 {
				log.open = false
			}
		}
		check := func(step int, op string) {
			t.Helper()
			log.open = false
			want := model.sortedSeqs()
			var got []int64
			log.each(func(seq int64, tp relation.Tuple, bucket int32) {
				got = append(got, seq)
				if e := (modelEntry{tuple: tp, bucket: bucket}); !reflect.DeepEqual(e, model.m[seq]) {
					t.Fatalf("seed %d step %d (%s): seq %d holds %+v, model %+v", seed, step, op, seq, e, model.m[seq])
				}
			})
			if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("seed %d step %d (%s): live set %v, model %v", seed, step, op, got, want)
			}
			if log.live != len(model.m) || log.seq != model.next {
				t.Fatalf("seed %d step %d (%s): live %d next %d, model %d %d",
					seed, step, op, log.live, log.seq, len(model.m), model.next)
			}
			// The log holds nothing below the buffer of its oldest live record.
			if front := log.bufs.at(log.bufs.base); len(want) > 0 &&
				(front.first > want[0] || want[0] >= front.first+int64(front.n)) {
				t.Fatalf("seed %d step %d (%s): front buffer [%d,+%d), oldest live %d", seed, step, op, front.first, front.n, want[0])
			}
			if len(want) == 0 && log.bufs.len() != 0 {
				t.Fatalf("seed %d step %d (%s): empty log still holds %d buffers", seed, step, op, log.bufs.len())
			}
		}
		for step := 0; step < 1500; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 45: // a burst of sends
				op = "append"
				for n := 1 + rng.Intn(70); n > 0; n-- {
					id++
					appendBoth(intTuple(id), int32(rng.Intn(4)))
				}
			case r < 80: // an ack: in order, late and smaller, duplicate, or beyond the end
				op = "ack"
				ck := model.next - 1 - int64(rng.Intn(120)) + int64(rng.Intn(10))
				var except []int64
				if rng.Intn(4) == 0 {
					// A recall pinned some sequences (live or long gone).
					for n := rng.Intn(6); n > 0; n-- {
						except = append(except, ck-int64(rng.Intn(80)))
					}
					op = fmt.Sprintf("ack %d except %v", ck, except)
				}
				keep := append([]int64(nil), except...)
				sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
				log.release(ck, keep)
				model.ack(ck, except)
			case r < 90: // Resend: take by sequence, migrate under a fresh one
				op = "take+resend"
				seq := model.next - int64(rng.Intn(150))
				want, wantOK := model.m[seq]
				delete(model.m, seq)
				tp, bucket, ok := log.take(seq)
				if got := (modelEntry{tuple: tp, bucket: bucket}); ok != wantOK || ok && !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: take(%d) = %+v %v, model %+v %v", seed, step, seq, got, ok, want, wantOK)
				}
				if ok {
					appendBoth(tp, bucket)
				}
			case r < 97: // Replay: a bucket's records leave mid-log and re-enter at the end
				op = "replay"
				bucket := int32(rng.Intn(4))
				var moved []int64
				log.each(func(seq int64, _ relation.Tuple, b int32) {
					if b == bucket {
						moved = append(moved, seq)
					}
				})
				var want []int64
				for _, seq := range model.sortedSeqs() {
					if model.m[seq].bucket == bucket {
						want = append(want, seq)
					}
				}
				if !reflect.DeepEqual(moved, want) && (len(moved) != 0 || len(want) != 0) {
					t.Fatalf("seed %d step %d: replay snapshot %v, model (sorted) %v", seed, step, moved, want)
				}
				for _, seq := range moved {
					tp, b, ok := log.take(seq)
					if !ok {
						t.Fatalf("seed %d step %d: replay lost seq %d", seed, step, seq)
					}
					delete(model.m, seq)
					appendBoth(tp, b)
				}
			default: // Release / DetachConsumer / ReplayLost
				op = "reset"
				log.reset()
				model.m = map[int64]modelEntry{}
			}
			check(step, op)
		}
	}
}

// mapStream is one stream's consumer-side bookkeeping as the parent kept it.
type mapStream struct {
	outstanding map[int64]bool
	discarded   map[int64]bool
	pending     []int64
}

type modelAck struct {
	Producer   int
	Checkpoint int64
	Except     []int64
}

func sortAcks(acks []modelAck) {
	for _, a := range acks {
		sort.Slice(a.Except, func(i, j int) bool { return a.Except[i] < a.Except[j] })
	}
	sort.Slice(acks, func(i, j int) bool {
		if acks[i].Producer != acks[j].Producer {
			return acks[i].Producer < acks[j].Producer
		}
		return acks[i].Checkpoint < acks[j].Checkpoint
	})
}

// modelAckable is the parent's ackableLocked: a map walk per pending checkpoint.
func modelAckable(streams []*mapStream) []modelAck {
	var acks []modelAck
	for p, st := range streams {
		for len(st.pending) > 0 {
			ck := st.pending[0]
			blocked := false
			for s := range st.outstanding {
				if s <= ck {
					blocked = true
				}
			}
			if blocked {
				break
			}
			var except []int64
			for s := range st.discarded {
				if s <= ck {
					except = append(except, s)
				}
			}
			acks = append(acks, modelAck{Producer: p, Checkpoint: ck, Except: except})
			st.pending = st.pending[1:]
		}
	}
	return acks
}

func TestConsumerWindowMatchesMapModel(t *testing.T) {
	const producers, workers = 2, 3
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newConsumerHarness(t, producers, false)
		c := h.cons
		streams := make([]*mapStream, producers)
		for i := range streams {
			streams[i] = &mapStream{outstanding: map[int64]bool{}, discarded: map[int64]bool{}}
		}
		var queue []modelEntry
		nextSeq := make([]int64, producers)
		for i := range nextSeq {
			nextSeq[i] = 1
		}
		ws := make([]*ConsumerWorker, workers)
		held := make([][]modelEntry, workers) // the model's view of each worker's morsel
		for i := range ws {
			ws[i] = c.NewWorker()
		}
		batch := relation.NewBatch(40)
		var want []modelAck // every ack the model has emitted so far
		acked := 0          // how many of the consumer's acks have been compared

		check := func(step int, op string, emitted []modelAck) {
			t.Helper()
			want = append(want, emitted...)
			// Acks triggered by a delivery are sent from their own
			// goroutines: wait for the count the model expects.
			var msgs []*transport.Message
			for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
				if msgs = h.ackMessages(); len(msgs) >= len(want) || time.Now().After(deadline) {
					break
				}
			}
			if len(msgs) != len(want) {
				t.Fatalf("seed %d step %d (%s): consumer sent %d acks, model %d", seed, step, op, len(msgs), len(want))
			}
			got := make([]modelAck, 0, len(emitted))
			for _, m := range msgs[acked:] {
				got = append(got, modelAck{Producer: m.ProducerIdx, Checkpoint: m.Checkpoint, Except: append([]int64(nil), m.Except...)})
			}
			acked = len(msgs)
			sortAcks(got)
			sortAcks(emitted)
			if len(got) != len(emitted) {
				t.Fatalf("seed %d step %d (%s): acks %+v, model %+v", seed, step, op, got, emitted)
			}
			for i := range got {
				if got[i].Producer != emitted[i].Producer || got[i].Checkpoint != emitted[i].Checkpoint ||
					fmt.Sprint(got[i].Except) != fmt.Sprint(emitted[i].Except) {
					t.Fatalf("seed %d step %d (%s): acks %+v, model %+v", seed, step, op, got, emitted)
				}
			}
			c.gate.mu.Lock()
			defer c.gate.mu.Unlock()
			if c.queue.len() != len(queue) {
				t.Fatalf("seed %d step %d (%s): %d queued, model %d", seed, step, op, c.queue.len(), len(queue))
			}
			for p, st := range c.streams {
				// Outstanding: the stream's live queued tuples plus the
				// spans the workers hold.
				var live []int64
				for ord := c.queue.q.base; ord < c.queue.q.next(); ord++ {
					if e := c.queue.q.at(ord); int(e.producer) == p {
						for i := e.pos; i < e.n; i++ {
							if !e.isDead(int(i)) {
								live = append(live, e.first+int64(i))
							}
						}
					}
				}
				for _, w := range ws {
					for _, s := range w.pending {
						for i := int64(0); int(s.producer) == p && i < int64(s.n); i++ {
							live = append(live, s.first+i)
						}
					}
				}
				sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
				model := make([]int64, 0, len(streams[p].outstanding))
				for seq := range streams[p].outstanding {
					model = append(model, seq)
				}
				sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })
				if fmt.Sprint(live) != fmt.Sprint(model) {
					t.Fatalf("seed %d step %d (%s): stream %d outstanding %v, model %v", seed, step, op, p, live, model)
				}
				// The window counts the same tuples, and its front buffer
				// holds the oldest outstanding one.
				w := &st.outstanding.q
				left := 0
				for ord := w.base; ord < w.next(); ord++ {
					left += int(w.at(ord).left)
				}
				if left != len(model) {
					t.Fatalf("seed %d step %d (%s): stream %d window counts %d outstanding, model %d", seed, step, op, p, left, len(model))
				}
				if len(model) > 0 && (w.at(w.base).first > model[0] || w.len() > 1 && w.at(w.base+1).first <= model[0]) {
					t.Fatalf("seed %d step %d (%s): stream %d low-water mark %d, oldest outstanding %d",
						seed, step, op, p, w.at(w.base).first, model[0])
				}
				var pending []int64
				for ord := st.pending.base; ord < st.pending.next(); ord++ {
					pending = append(pending, *st.pending.at(ord))
				}
				if fmt.Sprint(pending) != fmt.Sprint(streams[p].pending) {
					t.Fatalf("seed %d step %d (%s): stream %d pending %v, model %v", seed, step, op, p, pending, streams[p].pending)
				}
				// The sets change only in a recall; every ack's Except list
				// re-checks their content anyway.
				discarded := map[int64]bool{}
				for _, seq := range st.discarded {
					discarded[seq] = true
				}
				if len(st.discarded) != len(streams[p].discarded) ||
					strings.HasPrefix(op, "discard") && !reflect.DeepEqual(discarded, streams[p].discarded) {
					t.Fatalf("seed %d step %d (%s): stream %d discarded %v, model %v", seed, step, op, p, st.discarded, streams[p].discarded)
				}
			}
		}

		for step := 0; step < 800; step++ {
			var emitted []modelAck
			var op string
			switch r := rng.Intn(100); {
			case r < 35: // a buffer arrives, perhaps after replay buffers consumed sequences
				p := rng.Intn(producers)
				if rng.Intn(5) == 0 {
					nextSeq[p] += int64(1 + rng.Intn(3*seqChunk))
				}
				n := rng.Intn(60) // zero: a checkpoint-only message
				msg := &transport.Message{Kind: transport.KindData, Exchange: "EX", ProducerIdx: p, StartSeq: nextSeq[p]}
				for i := 0; i < n; i++ {
					e := modelEntry{producer: p, seq: nextSeq[p], bucket: int32(rng.Intn(4)), tuple: intTuple(step)}
					nextSeq[p]++
					msg.Tuples = append(msg.Tuples, e.tuple)
					msg.Buckets = append(msg.Buckets, e.bucket)
					queue = append(queue, e)
					streams[p].outstanding[e.seq] = true
				}
				if (n == 0 || rng.Intn(2) == 0) && nextSeq[p] > 1 {
					msg.Checkpoint = nextSeq[p] - 1
					st := streams[p]
					st.pending = append(st.pending, msg.Checkpoint)
					sort.Slice(st.pending, func(i, j int) bool { return st.pending[i] < st.pending[j] })
					emitted = modelAckable(streams)
				}
				op = fmt.Sprintf("deliver p%d start %d n %d ck %d", p, msg.StartSeq, n, msg.Checkpoint)
				if err := c.Deliver(msg); err != nil {
					t.Fatal(err)
				}
			case r < 65: // a worker takes a morsel
				w := rng.Intn(workers)
				op = fmt.Sprintf("pop w%d", w)
				if len(held[w]) > 0 || len(queue) == 0 {
					continue
				}
				batch.SetLimit(1 + rng.Intn(40))
				n, err := ws[w].NextBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				take := batch.Cap()
				if take > len(queue) {
					take = len(queue)
				}
				if n != take {
					t.Fatalf("seed %d step %d: popped %d, model %d", seed, step, n, take)
				}
				var popped []modelEntry
				for _, s := range ws[w].pending {
					for i := int64(0); i < int64(s.n); i++ {
						popped = append(popped, modelEntry{producer: int(s.producer), seq: s.first + i})
					}
				}
				for i, e := range queue[:take] {
					if got := popped[i]; got.producer != e.producer || got.seq != e.seq || &batch.Tuples[i][0] != &e.tuple[0] {
						t.Fatalf("seed %d step %d: popped %+v, model %+v", seed, step, got, e)
					}
				}
				held[w] = append(held[w], queue[:take]...)
				queue = queue[take:]
			case r < 93: // workers finish out of order
				w := rng.Intn(workers)
				op = fmt.Sprintf("finish w%d (%d entries)", w, len(held[w]))
				for _, e := range held[w] {
					delete(streams[e.producer].outstanding, e.seq)
				}
				if len(held[w]) > 0 {
					emitted = modelAckable(streams)
				}
				held[w] = nil
				ws[w].Finish()
			default: // an R1 recall: everything queued, or some buckets
				var buckets []int32
				var filter map[int32]bool
				if rng.Intn(2) == 0 {
					buckets = []int32{int32(rng.Intn(4)), int32(rng.Intn(4))}
					filter = map[int32]bool{buckets[0]: true, buckets[1]: true}
				}
				op = fmt.Sprintf("discard %v", buckets)
				wantReport := map[int][]int64{}
				kept := queue[:0]
				for _, e := range queue {
					if filter == nil || filter[e.bucket] {
						delete(streams[e.producer].outstanding, e.seq)
						streams[e.producer].discarded[e.seq] = true
						wantReport[e.producer] = append(wantReport[e.producer], e.seq)
					} else {
						kept = append(kept, e)
					}
				}
				queue = kept
				c.gate.mu.Lock()
				report := c.discardLocked(buckets)
				c.gate.mu.Unlock()
				if !reflect.DeepEqual(report, wantReport) {
					t.Fatalf("seed %d step %d (%s): report %v, model %v", seed, step, op, report, wantReport)
				}
			}
			check(step, op, emitted)
		}
	}
}
