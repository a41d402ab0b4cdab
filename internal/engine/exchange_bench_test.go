package engine

import (
	"fmt"
	"testing"

	"repro/internal/relation"
)

// BenchmarkExchangeBacklog prices the exchange's checkpoint / recovery-log /
// acknowledgement bookkeeping under a consumer backlog: the producer sends
// the whole stream while the consumer is stalled (as a join's probe side is
// while the build side is still arriving), then the consumer drains it and
// acknowledges every checkpoint until the log is empty and EOS arrives. The
// recall cases hash-route the stream and, half-way through the drain, recall
// and resend the queued tuples of half the buckets, so recalled tuples are
// marked dead in place, pin their buffers and are re-logged. The unlogged
// cases send the plain stream with no recovery log, as a session without
// adaptivity does: no checkpoints or acks, and every buffer goes back to the
// pool once drained. The reported ns/tuple must stay flat as the backlog
// grows.
func BenchmarkExchangeBacklog(b *testing.B) {
	for _, recall := range []bool{false, true} {
		for _, n := range []int{10_000, 20_000, 40_000, 80_000} {
			name := fmt.Sprintf("%dk", n/1000)
			if recall {
				name = "recall/" + name
			}
			b.Run(name, func(b *testing.B) { benchExchangeBacklog(b, n, recall, false) })
		}
	}
	for _, n := range []int{10_000, 20_000, 40_000, 80_000} {
		b.Run(fmt.Sprintf("unlogged/%dk", n/1000), func(b *testing.B) { benchExchangeBacklog(b, n, false, true) })
	}
}

func benchExchangeBacklog(b *testing.B, n int, recall, unlogged bool) {
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{relation.Int(int64(i)), relation.String("payload")}
	}
	half := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	net, ctx := newExchangeContext()
	batch := relation.GetBatch()
	defer batch.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var pol DistPolicy
		var err error
		if recall {
			pol, err = NewHashPolicy([]int{0}, 16, []float64{1})
		} else {
			pol, err = NewWeightedPolicy([]float64{1})
		}
		if err != nil {
			b.Fatal(err)
		}
		rig := newExchangeRigFor(b, net, ctx, 1, ProducerConfig{Policy: pol, Unlogged: unlogged})
		prod, cons := rig.prod, rig.cons[0]
		for at := 0; at < n; at += relation.DefaultBatchSize {
			if err := prod.SendBatch(tuples[at:min(at+relation.DefaultBatchSize, n)], ctx.Meter); err != nil {
				b.Fatal(err)
			}
		}
		if err := prod.Close(); err != nil {
			b.Fatal(err)
		}
		got, recalled := 0, !recall
		for {
			if !recalled && got >= n/2 {
				recalled = true
				if err := prod.Pause(); err != nil {
					b.Fatal(err)
				}
				var report map[int][]int64
				cons.gate.locked(func() {
					cons.finishLocked(&cons.self)
					report = cons.discardLocked(half)
				})
				if _, err := prod.Resend(0, report[0]); err != nil {
					b.Fatal(err)
				}
				prod.Resume()
			}
			k, err := cons.NextBatch(batch)
			if err != nil {
				b.Fatal(err)
			}
			if k == 0 {
				break
			}
			got += k
		}
		if _, _, logged := prod.Stats(); got != n || logged != 0 {
			b.Fatalf("drained %d of %d tuples, %d still logged", got, n, logged)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tuple")
}
