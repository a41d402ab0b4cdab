package bus

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/vtime"
)

func testBus() *Bus {
	return New(vtime.NewClock(time.Microsecond), nil)
}

func TestPublishDelivers(t *testing.T) {
	b := testBus()
	defer b.Close()
	got := make(chan any, 1)
	b.Subscribe("diag", "n1", "med", func(n Notification) { got <- n.Payload })
	b.Publish("med0", "n0", "med", 42)
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("payload = %v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("notification never delivered")
	}
}

func TestPerSubscriptionOrdering(t *testing.T) {
	b := testBus()
	defer b.Close()
	const n = 500
	recv := make([]int, 0, n)
	done := make(chan struct{})
	b.Subscribe("s", "n1", "t", func(nt Notification) {
		recv = append(recv, nt.Payload.(int))
		if len(recv) == n {
			close(done)
		}
	})
	for i := 0; i < n; i++ {
		b.Publish("p", "n0", "t", i)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d/%d delivered", len(recv), n)
	}
	for i, v := range recv {
		if v != i {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
}

func TestMultipleSubscribersEachGetACopy(t *testing.T) {
	b := testBus()
	defer b.Close()
	var count atomic.Int64
	var wg sync.WaitGroup
	wg.Add(3)
	for i := 0; i < 3; i++ {
		b.Subscribe("s", "n1", "t", func(Notification) {
			count.Add(1)
			wg.Done()
		})
	}
	b.Publish("p", "n0", "t", "x")
	waitDone(t, &wg)
	if count.Load() != 3 {
		t.Fatalf("delivered %d, want 3", count.Load())
	}
}

func TestTopicsAreIsolated(t *testing.T) {
	b := testBus()
	defer b.Close()
	var wrong atomic.Int64
	b.Subscribe("s", "n1", "other", func(Notification) { wrong.Add(1) })
	hit := make(chan struct{}, 1)
	b.Subscribe("s2", "n1", "t", func(Notification) { hit <- struct{}{} })
	b.Publish("p", "n0", "t", nil)
	<-hit
	time.Sleep(10 * time.Millisecond)
	if wrong.Load() != 0 {
		t.Fatal("notification leaked across topics")
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	b := testBus()
	defer b.Close()
	var count atomic.Int64
	s := b.Subscribe("s", "n1", "t", func(Notification) { count.Add(1) })
	b.Publish("p", "n0", "t", 1)
	s.Cancel()
	s.Drain()
	after := count.Load()
	b.Publish("p", "n0", "t", 2)
	time.Sleep(10 * time.Millisecond)
	if count.Load() != after {
		t.Fatal("delivery after Cancel")
	}
	if after > 1 {
		t.Fatalf("delivered %d before cancel, want ≤1", after)
	}
}

func TestCloseRejectsPublishAndSubscribe(t *testing.T) {
	b := testBus()
	var count atomic.Int64
	b.Subscribe("s", "n1", "t", func(Notification) { count.Add(1) })
	b.Close()
	b.Publish("p", "n0", "t", 1)
	s2 := b.Subscribe("late", "n1", "t", func(Notification) { count.Add(1) })
	s2.Drain() // returns immediately: subscription was stillborn
	b.Publish("p", "n0", "t", 2)
	time.Sleep(10 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatalf("delivered %d after Close", count.Load())
	}
	b.Close() // idempotent
}

func TestStats(t *testing.T) {
	b := testBus()
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	b.Subscribe("s", "n1", "m1", func(Notification) { wg.Done() })
	b.Publish("p", "n0", "m1", 1)
	b.Publish("p", "n0", "m1", 2)
	b.Publish("p", "n0", "m2", 3) // no subscriber: published but undelivered
	waitDone(t, &wg)
	st := b.StatsSnapshot()
	if st.Published["m1"] != 2 || st.Published["m2"] != 1 {
		t.Fatalf("published = %v", st.Published)
	}
	if st.Delivered != 2 {
		t.Fatalf("delivered = %d, want 2", st.Delivered)
	}
}

func TestCrossNodeDeliveryChargesLink(t *testing.T) {
	clock := vtime.NewClock(50 * time.Microsecond)
	net := simnet.NewNetwork(clock)
	net.AddNode("a")
	net.AddNode("b")
	net.SetLink("a", "b", &simnet.Link{LatencyMs: 20}) // 1ms real
	b := New(clock, net)
	defer b.Close()

	local := make(chan time.Time, 1)
	remote := make(chan time.Time, 1)
	b.Subscribe("local", "a", "t", func(Notification) { local <- time.Now() })
	b.Subscribe("remote", "b", "t", func(Notification) { remote <- time.Now() })
	start := time.Now()
	b.Publish("p", "a", "t", nil)
	lt, rt := <-local, <-remote
	if lt.Sub(start) > 500*time.Microsecond {
		t.Errorf("local delivery took %v, should be ~free", lt.Sub(start))
	}
	if rt.Sub(start) < 700*time.Microsecond {
		t.Errorf("remote delivery took %v, want ≥ ~1ms link cost", rt.Sub(start))
	}
}

func TestConcurrentPublishers(t *testing.T) {
	// Block policy: every publish must land, so the count is exact even
	// when publishers outpace the delivery goroutine.
	b := NewWithOptions(vtime.NewClock(time.Microsecond), nil, Options{Overflow: OverflowBlock})
	defer b.Close()
	const pubs, each = 8, 200
	var count atomic.Int64
	var wg sync.WaitGroup
	wg.Add(pubs * each)
	b.Subscribe("s", "n1", "t", func(Notification) {
		count.Add(1)
		wg.Done()
	})
	for p := 0; p < pubs; p++ {
		go func() {
			for i := 0; i < each; i++ {
				b.Publish("p", "n0", "t", i)
			}
		}()
	}
	waitDone(t, &wg)
	if count.Load() != pubs*each {
		t.Fatalf("delivered %d, want %d", count.Load(), pubs*each)
	}
}

func TestDropOldestBoundsQueueAndCounts(t *testing.T) {
	b := NewWithOptions(vtime.NewClock(time.Microsecond), nil, Options{QueueCap: 4, Overflow: OverflowDropOldest})
	defer b.Close()
	gate := make(chan struct{})
	var recv []int
	done := make(chan struct{})
	s := b.Subscribe("slow", "n1", "t", func(n Notification) {
		<-gate
		recv = append(recv, n.Payload.(int))
	})
	// The delivery goroutine dequeues the first notification and parks in
	// the handler; publish until the 4-slot queue has been overrun.
	const total = 10
	for i := 0; i < total; i++ {
		b.Publish("p", "n0", "t", i)
	}
	// Drops are counted synchronously in Publish: at most cap 4 queued plus
	// one possibly in-flight survive, so at least total-5 were dropped.
	st := b.StatsSnapshot()
	if st.Dropped["t"] < total-5 {
		t.Fatalf("dropped = %d, want ≥ %d", st.Dropped["t"], total-5)
	}
	close(gate)
	go func() { s.Cancel(); s.Drain(); close(done) }()
	<-done
	if len(recv) < 4 || int64(len(recv))+st.Dropped["t"] != total {
		t.Fatalf("delivered %d, dropped %d: survivors + drops must equal %d published, with ≥ cap survivors",
			len(recv), st.Dropped["t"], total)
	}
	// Drop-oldest keeps the freshest tail: the last queued survivors must
	// be the most recently published values, in order.
	for i := 1; i < len(recv); i++ {
		if recv[i] <= recv[i-1] {
			t.Fatalf("out of order after drops: %v", recv)
		}
	}
	if recv[len(recv)-1] != total-1 {
		t.Fatalf("newest notification lost: got tail %d, want %d", recv[len(recv)-1], total-1)
	}
}

func TestBlockExertsBackpressure(t *testing.T) {
	b := NewWithOptions(vtime.NewClock(time.Microsecond), nil, Options{QueueCap: 2, Overflow: OverflowBlock})
	defer b.Close()
	gate := make(chan struct{})
	var count atomic.Int64
	b.Subscribe("slow", "n1", "t", func(Notification) {
		<-gate
		count.Add(1)
	})
	published := make(chan struct{})
	go func() {
		// 1 in-flight + 2 queued fit; the 4th publish must block.
		for i := 0; i < 4; i++ {
			b.Publish("p", "n0", "t", i)
		}
		close(published)
	}()
	select {
	case <-published:
		t.Fatal("publisher finished against a full queue: no backpressure")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate) // subscriber drains, freeing space
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher never unblocked")
	}
	waitFor(t, func() bool { return count.Load() == 4 }, "all 4 delivered")
	if d := b.StatsSnapshot().Dropped["t"]; d != 0 {
		t.Fatalf("block policy dropped %d notifications", d)
	}
}

func TestBlockedPublisherReleasedOnClose(t *testing.T) {
	b := NewWithOptions(vtime.NewClock(time.Microsecond), nil, Options{QueueCap: 1, Overflow: OverflowBlock})
	gate := make(chan struct{})
	defer close(gate)
	b.Subscribe("slow", "n1", "t", func(Notification) { <-gate })
	unblocked := make(chan struct{})
	go func() {
		for i := 0; i < 4; i++ {
			b.Publish("p", "n0", "t", i)
		}
		close(unblocked)
	}()
	time.Sleep(20 * time.Millisecond) // let the publisher hit the full queue
	b.Close()
	select {
	case <-unblocked:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher still blocked after Close")
	}
}

func TestSubscribeContextCancelStopsDelivery(t *testing.T) {
	b := testBus()
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var count atomic.Int64
	s := b.SubscribeContext(ctx, "s", "n1", "t", func(Notification) { count.Add(1) })
	hit := make(chan struct{}, 1)
	b.Subscribe("probe", "n1", "t", func(Notification) { hit <- struct{}{} })
	b.Publish("p", "n0", "t", 1)
	<-hit
	cancel()
	s.Drain() // the watcher cancels the subscription; Drain must return
	after := count.Load()
	b.Publish("p", "n0", "t", 2)
	<-hit
	time.Sleep(10 * time.Millisecond)
	if count.Load() != after {
		t.Fatal("delivery continued after context cancellation")
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(time.Millisecond):
		}
	}
}

func waitDone(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for deliveries")
	}
}

// TestStatsSnapshotConcurrent is the race-audit test for the monitoring
// path: publishers, snapshot readers, and subscribe/cancel churn all run at
// once. Run under -race (make race / the CI race job), it proves the
// per-topic counter maps and the aggregate counters are safely shared.
func TestStatsSnapshotConcurrent(t *testing.T) {
	b := NewWithOptions(vtime.NewClock(time.Microsecond), nil, Options{QueueCap: 8})
	defer b.Close()

	var publishers sync.WaitGroup
	for i := 0; i < 4; i++ {
		publishers.Add(1)
		go func(i int) {
			defer publishers.Done()
			topic := Topic([]string{"t0", "t1"}[i%2])
			for j := 0; j < 500; j++ {
				b.Publish("pub", "n", topic, j)
			}
		}(i)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := b.StatsSnapshot()
			// Mutating the returned copy must not affect the bus.
			st.Published["t0"] = -1
			st.Dropped["t0"] = -1
		}
	}()
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; i < 50; i++ {
			sub := b.Subscribe("churn", "n", "t0", func(Notification) {})
			sub.Cancel()
		}
	}()

	waitDone(t, &publishers)
	close(stop)
	readers.Wait()

	st := b.StatsSnapshot()
	if st.Published["t0"]+st.Published["t1"] != 2000 {
		t.Fatalf("published = %v, want 2000 total", st.Published)
	}
	if st.Published["t0"] < 0 || st.Dropped["t0"] < 0 {
		t.Fatal("snapshot mutation leaked into the bus")
	}
}

// TestPublishRacesSubscribeAndCancel publishes while other subscriptions
// on the same topic come and go: Publish iterates the subscriber slice it
// read under the lock without copying it, so Subscribe and Cancel must
// never rewrite an element a publisher may still be reading. A
// subscription present throughout receives every notification exactly
// once (run with -race).
func TestPublishRacesSubscribeAndCancel(t *testing.T) {
	b := NewWithOptions(vtime.NewClock(time.Microsecond), nil, Options{Overflow: OverflowBlock})
	defer b.Close()
	churn := make(chan *Subscription, 64)
	for i := 0; i < 4; i++ { // ahead of the stable subscription in the slice
		churn <- b.Subscribe("churn", "n1", "t", func(Notification) {})
	}
	var got atomic.Int64
	stable := b.Subscribe("stable", "n1", "t", func(Notification) { got.Add(1) })
	const publishers, each = 2, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for {
			select {
			case <-stop:
				return
			case s := <-churn:
				s.Cancel()
				churn <- b.Subscribe("churn", "n1", "t", func(Notification) {})
			}
		}
	}()
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Publish("p", "n0", "t", i)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-churned
	stable.Cancel()
	stable.Drain()
	if n := got.Load(); n != publishers*each {
		t.Fatalf("stable subscription received %d of %d notifications", n, publishers*each)
	}
}

// TestPublishAllocsPerCall bounds Publish on the steady-state path: a
// payload that boxes without allocating, two subscribers whose queues have
// grown, nothing but the rings' amortised growth left to allocate.
func TestPublishAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	b := testBus()
	defer b.Close()
	b.Subscribe("a", "n1", "t", func(Notification) {})
	b.Subscribe("b", "n1", "t", func(Notification) {})
	if got := testing.AllocsPerRun(2000, func() { b.Publish("p", "n0", "t", 7) }); got >= 0.1 {
		t.Fatalf("Publish allocates %.3f per call, want < 0.1", got)
	}
}
