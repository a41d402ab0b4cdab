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

// The two model tests below drive the seq-indexed recovery log and the
// consumer's low-water-mark window through seeded random interleavings and
// compare them, after every step, with the map bookkeeping they replaced
// (kept here, verbatim in behaviour, as the reference). The generators stay
// inside what the protocol can produce: a stream delivers in sequence order.

func TestSeqQueueRecyclesChunks(t *testing.T) {
	var q seqQueue[int]
	q.reset(7)
	for round := 0; round < 5; round++ {
		for i := 0; i < 3*seqChunk+5; i++ {
			q.push(round*10000 + i)
		}
		for i := 0; i < 3*seqChunk+5; i++ {
			if *q.at(q.base) != round*10000+i {
				t.Fatalf("round %d: front = %d, want %d", round, *q.at(q.base), round*10000+i)
			}
			if got := q.popFront(); got != round*10000+i {
				t.Fatalf("round %d: pop = %d, want %d", round, got, round*10000+i)
			}
		}
		if q.len() != 0 || len(q.chunks) > 1 {
			t.Fatalf("round %d: drained queue holds %d entries in %d chunks", round, q.len(), len(q.chunks))
		}
	}
	if q.next() != 7+5*(3*seqChunk+5) {
		t.Fatalf("next = %d after %d pushes from base 7", q.next(), 5*(3*seqChunk+5))
	}
	// A steady stream (the consumer keeps up) allocates no chunk.
	if a := testing.AllocsPerRun(10, func() {
		for i := 0; i < 4*seqChunk; i++ {
			q.push(i)
			q.push(i)
			q.popFront()
			q.popFront()
		}
	}); a != 0 {
		t.Fatalf("steady stream allocates %.0f times per %d entries", a, 8*seqChunk)
	}
}

// mapLog is the recovery log as the parent kept it.
type mapLog struct {
	m    map[int64]logEntry
	next int64
}

func (l *mapLog) append(t relation.Tuple, bucket int32) int64 {
	seq := l.next
	l.next++
	l.m[seq] = logEntry{tuple: t, bucket: bucket, live: true}
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
		log := newRecoveryLog()
		model := &mapLog{m: map[int64]logEntry{}, next: 1}
		id := 0
		appendBoth := func(tp relation.Tuple, bucket int32) {
			if a, b := log.append(tp, bucket), model.append(tp, bucket); a != b {
				t.Fatalf("seed %d: append assigned seq %d, model %d", seed, a, b)
			}
		}
		check := func(step int, op string) {
			t.Helper()
			want := model.sortedSeqs()
			var got []int64
			log.each(func(seq int64, e logEntry) {
				got = append(got, seq)
				if !reflect.DeepEqual(e, model.m[seq]) {
					t.Fatalf("seed %d step %d (%s): seq %d holds %+v, model %+v", seed, step, op, seq, e, model.m[seq])
				}
			})
			if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("seed %d step %d (%s): live set %v, model %v", seed, step, op, got, want)
			}
			if log.live != len(model.m) || log.next() != model.next {
				t.Fatalf("seed %d step %d (%s): live %d next %d, model %d %d",
					seed, step, op, log.live, log.next(), len(model.m), model.next)
			}
			// The log holds nothing below its oldest live record.
			if len(want) > 0 && log.q.base != want[0] {
				t.Fatalf("seed %d step %d (%s): base %d, oldest live %d", seed, step, op, log.q.base, want[0])
			}
			if len(want) == 0 && log.q.len() != 0 {
				t.Fatalf("seed %d step %d (%s): empty log still holds %d slots", seed, step, op, log.q.len())
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
				var keep map[int64]bool
				if len(except) > 0 {
					keep = make(map[int64]bool)
					for _, s := range except {
						keep[s] = true
					}
				}
				log.release(ck, keep)
				model.ack(ck, except)
			case r < 90: // Resend: take by sequence, migrate under a fresh one
				op = "take+resend"
				seq := model.next - int64(rng.Intn(150))
				want, wantOK := model.m[seq]
				delete(model.m, seq)
				got, ok := log.take(seq)
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: take(%d) = %+v %v, model %+v %v", seed, step, seq, got, ok, want, wantOK)
				}
				if ok {
					appendBoth(got.tuple, got.bucket)
				}
			case r < 97: // Replay: a bucket's records leave mid-log and re-enter at the end
				op = "replay"
				bucket := int32(rng.Intn(4))
				var moved []int64
				log.each(func(seq int64, e logEntry) {
					if e.bucket == bucket {
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
					e, ok := log.take(seq)
					if !ok {
						t.Fatalf("seed %d step %d: replay lost seq %d", seed, step, seq)
					}
					delete(model.m, seq)
					appendBoth(e.tuple, e.bucket)
				}
			default: // Release / DetachConsumer / ReplayLost
				op = "reset"
				log.reset()
				model.m = map[int64]logEntry{}
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
		var queue []queueEntry
		nextSeq := make([]int64, producers)
		for i := range nextSeq {
			nextSeq[i] = 1
		}
		ws := make([]*ConsumerWorker, workers)
		held := make([][]queueEntry, workers) // the model's view of each worker's morsel
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
				var live []int64
				w := &st.outstanding
				for seq := w.q.base; seq < w.q.next(); seq++ {
					if !*w.q.at(seq) {
						live = append(live, seq)
					}
				}
				model := make([]int64, 0, len(streams[p].outstanding))
				for seq := range streams[p].outstanding {
					model = append(model, seq)
				}
				sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })
				if fmt.Sprint(live) != fmt.Sprint(model) {
					t.Fatalf("seed %d step %d (%s): stream %d outstanding %v, model %v", seed, step, op, p, live, model)
				}
				if len(model) > 0 && w.q.base != model[0] {
					t.Fatalf("seed %d step %d (%s): stream %d low-water mark %d, oldest outstanding %d",
						seed, step, op, p, w.q.base, model[0])
				}
				if fmt.Sprint(st.pending) != fmt.Sprint(streams[p].pending) {
					t.Fatalf("seed %d step %d (%s): stream %d pending %v, model %v", seed, step, op, p, st.pending, streams[p].pending)
				}
				// The sets change only in a recall; every ack's Except list
				// re-checks their content anyway.
				if len(st.discarded) != len(streams[p].discarded) ||
					strings.HasPrefix(op, "discard") && !reflect.DeepEqual(st.discarded, streams[p].discarded) {
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
					e := queueEntry{producer: p, seq: nextSeq[p], bucket: int32(rng.Intn(4)), tuple: intTuple(step)}
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
				for i, e := range queue[:take] {
					if got := ws[w].pending[i]; got.producer != e.producer || got.seq != e.seq || got.bucket != e.bucket {
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
