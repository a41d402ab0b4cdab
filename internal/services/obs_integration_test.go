package services

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/testenv"
	"repro/internal/vtime"
)

// TestObservabilityEndToEnd drives one adaptive, perturbed query and then
// reads the whole story back through the observability layer: /metrics must
// carry the per-operator and adaptation counters, and /timeline must replay
// the full M1 average → proposal → deployment sequence.
func TestObservabilityEndToEnd(t *testing.T) {
	// A fresh layer isolates this test's counters from the rest of the
	// package run; components resolve handles at construction, so the swap
	// must precede the cluster build.
	prev := obs.SetDefault(obs.New())
	t.Cleanup(func() { obs.SetDefault(prev) })

	cluster, _ := testGrid(t, true, 300, 100)
	cluster.Node("ws1").SetPerturbation(vtime.Multiplier(10))
	cfg := DefaultGDQSConfig()
	cfg.Responder.Response = core.R1
	cfg.QueryTimeout = 60 * time.Second
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := NewGDQS(cluster, "coordObs", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Execute(context.Background(), q1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Adaptations == 0 {
		t.Fatalf("no adaptation happened: %+v", res.Stats)
	}
	var partitioned string
	for _, frag := range res.Stats.Plan.Fragments {
		if frag.Partitioned {
			partitioned = frag.ID
		}
	}
	if partitioned == "" {
		t.Fatal("plan has no partitioned fragment")
	}

	srv := httptest.NewServer(obs.Handler(obs.Default()))
	defer srv.Close()

	// /metrics: per-operator tuple and batch counters, bus activity,
	// monitoring counters, and adaptation outcomes must all be present.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		fmt.Sprintf(`engine_tuples_produced_total{fragment=%q}`, partitioned),
		"engine_batch_size_bucket",
		"exchange_tuples_routed_total",
		"exchange_tuples_consumed_total",
		"bus_published_total",
		"bus_dropped_total",
		"bus_queue_depth_bucket",
		"med_raw_events_total",
		"med_notifications_total",
		"diagnoser_proposals_total",
		`adaptations_total{outcome="adapted"}`,
		"adaptation_duration_ms_count",
		"rpc_latency_ms_count",
		"transport_messages_total",
		`queries_total{outcome="ok"} 1`,
		"sessions_open 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics dump:\n%s", metrics)
		t.FailNow()
	}

	// /timeline: the adaptation story must appear in causal order for the
	// partitioned fragment — a windowed-average notification, then the
	// Diagnoser's proposal with weight vectors, then the deployed outcome.
	resp, err = srv.Client().Get(srv.URL + "/timeline?fragment=" + partitioned)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	first := map[obs.EventKind]int64{}
	firstAt := map[obs.EventKind]float64{}
	for _, e := range dump.Events {
		if _, seen := first[e.Kind]; !seen {
			first[e.Kind] = e.Seq
			firstAt[e.Kind] = e.AtMs
		}
		if e.Kind == obs.KindProposal && (len(e.OldWeights) == 0 || len(e.NewWeights) == 0) {
			t.Errorf("proposal event without weight vectors: %+v", e)
		}
		if (e.Kind == obs.KindMEDNotify || e.Kind == obs.KindProposal) && e.AtMs <= 0 {
			t.Errorf("%s event without its time: %+v", e.Kind, e)
		}
	}
	notify, okN := first[obs.KindMEDNotify]
	proposal, okP := first[obs.KindProposal]
	outcome, okO := first[obs.KindOutcome]
	if !okN || !okP || !okO {
		t.Fatalf("timeline misses stages (notify=%v proposal=%v outcome=%v): %+v",
			okN, okP, okO, dump.Events)
	}
	if !(notify < proposal && proposal < outcome) {
		t.Fatalf("timeline out of order: notify=%d proposal=%d outcome=%d", notify, proposal, outcome)
	}
	if n, p, o := firstAt[obs.KindMEDNotify], firstAt[obs.KindProposal], firstAt[obs.KindOutcome]; !(n <= p && p <= o) {
		t.Fatalf("timeline times out of order: notify at %.3f ms, proposal at %.3f, outcome at %.3f", n, p, o)
	}
	adapted := false
	for _, e := range dump.Events {
		if e.Kind == obs.KindOutcome && e.Outcome == "adapted" {
			adapted = true
		}
	}
	if !adapted {
		t.Fatalf("no adapted outcome on the timeline: %+v", dump.Events)
	}
}
