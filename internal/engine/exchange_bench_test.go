package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// BenchmarkExchangeBacklog prices the exchange's checkpoint / recovery-log /
// acknowledgement bookkeeping under a consumer backlog: the producer sends
// the whole stream while the consumer is stalled (as a join's probe side is
// while the build side is still arriving), then the consumer drains it and
// acknowledges every checkpoint until the log is empty and EOS arrives. The
// reported ns/tuple must stay flat as the backlog grows.
func BenchmarkExchangeBacklog(b *testing.B) {
	for _, n := range []int{10_000, 20_000, 40_000, 80_000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) { benchExchangeBacklog(b, n) })
	}
}

func benchExchangeBacklog(b *testing.B, n int) {
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{relation.Int(int64(i)), relation.String("payload")}
	}
	clock := vtime.NewClock(time.Nanosecond)
	net := simnet.NewNetwork(clock)
	net.AddNode("n") // one node: the loopback link costs nothing
	ctx := &ExecContext{Clock: clock, Node: net.Node("n"), Meter: vtime.NewMeter(clock)}
	batch := relation.GetBatch()
	defer batch.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := transport.NewInProc(net)
		pol, err := NewWeightedPolicy([]float64{1})
		if err != nil {
			b.Fatal(err)
		}
		prod := NewProducer(ProducerConfig{
			Exchange: "EX", Fragment: "F", ConsumerFragment: "G",
			Consumers: []Addr{{Node: "n", Service: "cons"}},
			Policy:    pol, Transport: tr, Node: "n",
		})
		prod.Bind(ctx)
		cons := newConsumer("EX", 0, []Addr{{Node: "n", Service: "prod"}}, false, newFlowGate(), tr, "n")
		if err := cons.Open(ctx); err != nil {
			b.Fatal(err)
		}
		tr.Register("n", "cons", func(_ simnet.NodeID, m *transport.Message) {
			if err := cons.Deliver(m); err != nil {
				b.Error(err)
			}
		})
		tr.Register("n", "prod", func(_ simnet.NodeID, m *transport.Message) { prod.HandleAck(m) })

		for at := 0; at < n; at += relation.DefaultBatchSize {
			if err := prod.SendBatch(tuples[at:min(at+relation.DefaultBatchSize, n)], ctx.Meter); err != nil {
				b.Fatal(err)
			}
		}
		if err := prod.Close(); err != nil {
			b.Fatal(err)
		}
		got := 0
		for {
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
