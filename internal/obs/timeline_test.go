package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestTimelineOrderAndEviction(t *testing.T) {
	tl := NewTimeline(4)
	for i := 0; i < 6; i++ {
		tl.Append(Event{Kind: KindOutcome, AtMs: float64(i)})
	}
	events := tl.Events()
	if len(events) != 4 {
		t.Fatalf("len = %d, want 4", len(events))
	}
	for i, e := range events {
		if want := int64(i + 2); e.Seq != want {
			t.Fatalf("events[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if tl.Evicted() != 2 {
		t.Fatalf("evicted = %d, want 2", tl.Evicted())
	}
}

func TestTimelineConcurrentAppend(t *testing.T) {
	tl := NewTimeline(128)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tl.Append(Event{Kind: KindMEDNotify})
				tl.Events()
			}
		}()
	}
	wg.Wait()
	events := tl.Events()
	if len(events) != 128 {
		t.Fatalf("len = %d, want 128 (full ring)", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs %d -> %d", events[i-1].Seq, events[i].Seq)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	o := New()
	o.Counter(Label("adaptations_total", "outcome", "adapted")).Add(2)
	o.Record(Event{Kind: KindMEDNotify, Fragment: "q1/F2", Key: "m1:q1/F2#0", AvgCostMs: 4.2})
	o.Record(Event{Kind: KindProposal, Fragment: "q1/F2", NewWeights: []float64{0.8, 0.2}})
	o.Record(Event{Kind: KindOutcome, Fragment: "q9/F0", Outcome: "adapted"})

	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if !strings.Contains(string(body), `adaptations_total{outcome="adapted"} 2`) {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	var dump struct {
		Evicted int64   `json:"evicted"`
		Events  []Event `json:"events"`
	}
	res, err = srv.Client().Get(srv.URL + "/timeline?fragment=q1/F2")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(res.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(dump.Events) != 2 {
		t.Fatalf("filtered events = %d, want 2", len(dump.Events))
	}
	if dump.Events[0].Kind != KindMEDNotify || dump.Events[1].Kind != KindProposal {
		t.Fatalf("unexpected kinds: %+v", dump.Events)
	}

	res, err = srv.Client().Get(srv.URL + "/timeline?since=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(res.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(dump.Events) != 1 || dump.Events[0].Seq != 2 {
		t.Fatalf("since filter returned %+v", dump.Events)
	}

	// A nil Obs serves empty documents rather than crashing.
	nilSrv := httptest.NewServer(Handler(nil))
	defer nilSrv.Close()
	res, err = nilSrv.Client().Get(nilSrv.URL + "/metrics")
	if err != nil || res.StatusCode != 200 {
		t.Fatalf("nil obs /metrics: %v %v", err, res)
	}
	res.Body.Close()
}

// TestServeRoundTrip binds Serve to an ephemeral loopback port and reads
// both endpoints back over a real connection.
func TestServeRoundTrip(t *testing.T) {
	o := New()
	o.Counter("queries_total").Inc()
	o.Record(Event{Kind: KindOutcome, Fragment: "q1/F1", Outcome: "adapted"})
	srv, addr, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "queries_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	res, err = http.Get("http://" + addr + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Events []Event `json:"events"`
	}
	err = json.NewDecoder(res.Body).Decode(&dump)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) != 1 || dump.Events[0].Outcome != "adapted" {
		t.Fatalf("/timeline events = %+v", dump.Events)
	}

	if _, _, err := Serve("127.0.0.1:-1", o); err == nil {
		t.Fatal("Serve accepted an unbindable address")
	}
}
