package services

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// remoteCluster spins a coordinator and three evaluators, each with its own
// TCP transport on localhost — separate transports exactly as separate
// processes would have.
func remoteCluster(t *testing.T, adaptive bool) (*RemoteCoordinator, map[simnet.NodeID]*Evaluator) {
	t.Helper()
	return remoteClusterFor(t, remoteManifest(adaptive))
}

func remoteManifest(adaptive bool) Manifest {
	return Manifest{
		Scale: 2 * time.Microsecond,
		Costs: engine.Costs{ScanMs: 0.5, FilterMs: 0.01, ProjectMs: 0.01,
			JoinBuildMs: 0.05, JoinProbeMs: 0.3, StartupMs: 20},
		Coordinator: "coord",
		DataNodes:   []DataNodeSpec{{Node: "data1", Sequences: 200, Interactions: 300}},
		Compute: []ComputeNodeSpec{
			{Node: "ws0", Speed: 1, EntropyCostMs: 3},
			{Node: "ws1", Speed: 1, EntropyCostMs: 3},
		},
		Adaptive: adaptive,
		Response: core.R1,
	}
}

func remoteClusterFor(t *testing.T, manifest Manifest) (*RemoteCoordinator, map[simnet.NodeID]*Evaluator) {
	t.Helper()
	nodes := []simnet.NodeID{"coord", "data1", "ws0", "ws1"}
	transports := make(map[simnet.NodeID]*transport.TCP, len(nodes))
	for _, n := range nodes {
		tr, err := transport.NewTCP(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		transports[n] = tr
		t.Cleanup(func() { _ = tr.Close() })
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				transports[a].AddPeer(b, transports[b].Addr())
			}
		}
	}

	evaluators := make(map[simnet.NodeID]*Evaluator)
	for _, n := range []simnet.NodeID{"data1", "ws0", "ws1"} {
		ev, err := NewEvaluator(manifest, n, transports[n])
		if err != nil {
			t.Fatal(err)
		}
		evaluators[n] = ev
		t.Cleanup(ev.Close)
	}
	coord, err := NewRemoteCoordinator(manifest, transports["coord"])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord, evaluators
}

func TestRemoteQ1OverTCP(t *testing.T) {
	coord, _ := remoteCluster(t, false)
	res, err := coord.Execute(context.Background(), q1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 200 {
		t.Fatalf("rows = %d, want 200", len(res.Rows))
	}
	for _, r := range res.Rows {
		if h := r[0].AsFloat(); h <= 0 || h > 8 {
			t.Fatalf("bad entropy %v", h)
		}
	}
}

func TestRemoteQ2OverTCP(t *testing.T) {
	coord, _ := remoteCluster(t, false)
	res, err := coord.Execute(context.Background(), q2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 300 {
		t.Fatalf("rows = %d, want 300", len(res.Rows))
	}
}

func TestRemoteAdaptiveOverTCP(t *testing.T) {
	coord, evaluators := remoteCluster(t, true)
	evaluators["ws1"].SetPerturbation(vtime.Multiplier(50))
	res, err := coord.Execute(context.Background(), q1, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 200 {
		t.Fatalf("rows = %d, want 200 (no loss under remote adaptation)", len(res.Rows))
	}
	if res.Stats.Adaptations == 0 {
		t.Error("remote adaptive run never adapted")
	}
}

func TestRemoteSequentialQueries(t *testing.T) {
	coord, _ := remoteCluster(t, false)
	for i := 0; i < 2; i++ {
		res, err := coord.Execute(context.Background(), q1, time.Minute)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res.Rows) != 200 {
			t.Fatalf("query %d: rows = %d", i, len(res.Rows))
		}
	}
}

func TestRemoteBadQuery(t *testing.T) {
	coord, _ := remoteCluster(t, false)
	if _, err := coord.Execute(context.Background(), "select nope from nothing", time.Minute); err == nil {
		t.Fatal("bad query accepted")
	}
}

// TestRemoteCatalogDerivedOnce: three queries through one coordinator and
// its evaluators return the same rows, and every participant plans all of
// them against the one catalog and registry it derived on the first — the
// data node from the store it serves scans from, every other participant
// from a single generation of the remote tables.
func TestRemoteCatalogDerivedOnce(t *testing.T) {
	coord, evaluators := remoteCluster(t, false)
	planners := map[simnet.NodeID]*planner{"coord": &coord.planner}
	for n, ev := range evaluators {
		planners[n] = &ev.planner
	}
	for n, p := range planners {
		if p.cat != nil || p.generated != 0 {
			t.Fatalf("%s derived its metadata in the constructor", n)
		}
	}

	var want []string
	cats := map[simnet.NodeID]*catalog.Catalog{}
	for i := 0; i < 3; i++ {
		res, err := coord.Execute(context.Background(), qJoinAgg, time.Minute)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got := sortedRows(res); i == 0 {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d returned different rows", i)
		}
		for n, p := range planners {
			if p.cat == nil || p.reg == nil {
				t.Fatalf("query %d: %s has no catalog", i, n)
			}
			if i == 0 {
				cats[n] = p.cat
			} else if p.cat != cats[n] {
				t.Fatalf("query %d: %s planned against a new catalog", i, n)
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("no rows")
	}
	for n, p := range planners {
		wantGenerated := 1
		if n == "data1" {
			wantGenerated = 0 // read from the store NewEvaluator built
		}
		if p.generated != wantGenerated {
			t.Errorf("%s generated the remote tables %d times over three plans, want %d", n, p.generated, wantGenerated)
		}
		meta, err := p.cat.Table("protein_interactions")
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := cats["coord"].Table("protein_interactions")
		if meta.Cardinality != 300 || meta.Node != "data1" || meta.AvgTupleBytes != ref.AvgTupleBytes || meta.TotalBytes != ref.TotalBytes {
			t.Errorf("%s catalog entry %+v disagrees with the coordinator's %+v", n, meta, ref)
		}
	}
}

// TestRemoteMetadataErrorKept: a manifest whose metadata cannot be derived
// (a compute node advertising no speed) still constructs — nothing is eager —
// and fails every Execute with the same error from the one attempt.
func TestRemoteMetadataErrorKept(t *testing.T) {
	manifest := remoteManifest(false)
	manifest.Compute[1].Speed = 0
	coord, _ := remoteClusterFor(t, manifest)
	for i := 0; i < 3; i++ {
		_, err := coord.Execute(context.Background(), q1, time.Minute)
		if err == nil || !strings.Contains(err.Error(), "non-positive speed") {
			t.Fatalf("query %d: err = %v, want the registry's speed error", i, err)
		}
	}
	if coord.planner.generated != 1 {
		t.Fatalf("metadata derivation attempted %d times, want 1", coord.planner.generated)
	}
}

// TestEvaluatorDeployRacesTeardown races first deploys (which contend on the
// one-time metadata derivation) with teardowns on one evaluator; run under
// -race. The evaluator must come out idle and serve the next real query.
func TestEvaluatorDeployRacesTeardown(t *testing.T) {
	coord, evaluators := remoteCluster(t, false)
	ev := evaluators["ws0"]
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = ev.deploy(q1) // may lose to a sibling: "already has an active query"
		}()
		go func() {
			defer wg.Done()
			ev.teardown()
		}()
	}
	wg.Wait()
	ev.teardown()
	if ev.planner.generated != 1 {
		t.Fatalf("racing deploys generated the remote tables %d times, want 1", ev.planner.generated)
	}
	res, err := coord.Execute(context.Background(), q1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 200 {
		t.Fatalf("rows = %d, want 200", len(res.Rows))
	}
}

// TestEvaluatorNodesDeployConsumersFirst checks the deploy order over
// synthetic plans: for every exchange, each machine hosting the consuming
// fragment is deployed before each machine that hosts the producing fragment
// and nothing at or above the consuming one. (A machine that does — ws0 and
// ws1 feeding each other's aggregate from their joins — cannot be ordered
// against its peer; its producers have nothing to send until the machines
// below, deployed last, start.)
func TestEvaluatorNodesDeployConsumersFirst(t *testing.T) {
	frag := func(id, consumer string, nodes ...simnet.NodeID) *physical.FragmentSpec {
		f := &physical.FragmentSpec{ID: id, Instances: nodes}
		if consumer != "" {
			f.Output = &physical.ExchangeSpec{ID: "E" + id, ConsumerFragment: consumer}
		}
		return f
	}
	cases := []struct {
		name  string
		frags []*physical.FragmentSpec
	}{
		{"scan, partitioned call, top", []*physical.FragmentSpec{
			frag("F1", "F2", "data1"), frag("F2", "F3", "ws0", "ws1"), frag("F3", "", "coord")}},
		// z hosts consecutive fragments 1 and 2; a hosts only fragment 1 and
		// feeds z's fragment 2. Ranking z by 1+1 instead of 2+1 tied it with
		// a, and name order then deployed the producer first.
		{"consumer node hosts consecutive fragments", []*physical.FragmentSpec{
			frag("F1", "F2", "d"), frag("F2", "F3", "z", "a"), frag("F3", "F4", "z"), frag("F4", "", "coord")}},
		{"two scans, join, aggregate", []*physical.FragmentSpec{
			frag("F1", "F3", "data1"), frag("F2", "F3", "data2"),
			frag("F3", "F4", "ws1", "ws0"), frag("F4", "F5", "ws0", "ws1"), frag("F5", "", "coord")}},
		{"coordinator also hosts a lower fragment", []*physical.FragmentSpec{
			frag("F1", "F2", "coord", "m"), frag("F2", "F3", "n"), frag("F3", "", "coord")}},
		{"single remote fragment at index zero", []*physical.FragmentSpec{
			frag("F1", "F2", "only"), frag("F2", "", "coord")}},
	}
	for _, tc := range cases {
		plan := &physical.Plan{Fragments: tc.frags, Coordinator: "coord"}
		order := evaluatorNodes(plan)
		pos := map[simnet.NodeID]int{}
		for i, n := range order {
			if _, dup := pos[n]; dup || n == "coord" {
				t.Fatalf("%s: bad deploy list %v", tc.name, order)
			}
			pos[n] = i
		}
		for _, producer := range tc.frags {
			for _, p := range producer.Instances {
				if _, listed := pos[p]; !listed && p != "coord" {
					t.Fatalf("%s: %s missing from deploy list %v", tc.name, p, order)
				}
			}
			if producer.Output == nil {
				continue
			}
			consumer := plan.Fragment(producer.Output.ConsumerFragment)
			consumerIdx := 0
			for tc.frags[consumerIdx] != consumer {
				consumerIdx++
			}
			hostsAtOrAbove := func(n simnet.NodeID) bool {
				for _, f := range tc.frags[consumerIdx:] {
					for _, inst := range f.Instances {
						if inst == n {
							return true
						}
					}
				}
				return false
			}
			for _, c := range consumer.Instances {
				for _, p := range producer.Instances {
					if c == "coord" || p == "coord" || hostsAtOrAbove(p) {
						continue
					}
					if pos[c] > pos[p] {
						t.Errorf("%s: producer %s of %s deploys before its consumer %s (order %v)",
							tc.name, p, producer.Output.ID, c, order)
					}
				}
			}
		}
	}
}

// TestRPCReplyEndpoints: every RPC of a coordinator gets its own reply
// endpoint and request id, and a reply carrying another id is dropped
// instead of completing the call.
func TestRPCReplyEndpoints(t *testing.T) {
	tr, err := transport.NewTCP("coord", "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	coord, err := NewRemoteCoordinator(Manifest{Coordinator: "coord"}, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	var seen []transport.Ctrl
	tr.Register("coord", "peer", func(_ simnet.NodeID, m *transport.Message) {
		seen = append(seen, *m.Ctrl)
		reply := func(id uint64, ok bool, msg string) {
			_, _ = tr.Send("coord", m.Ctrl.ReplyTo, m.Ctrl.ReplyService, &transport.Message{
				Kind: transport.KindReply, Ctrl: &transport.Ctrl{RequestID: id, OK: ok, Err: msg}})
		}
		reply(m.Ctrl.RequestID+1, true, "") // a stray reply to some other request
		reply(m.Ctrl.RequestID, false, "the real answer")
	})
	for i := 0; i < 2; i++ {
		err := coord.rpcWait(context.Background(), "coord", "peer",
			&transport.Message{Kind: transport.KindDeploy}, 5*time.Second)
		if err == nil || !strings.Contains(err.Error(), "the real answer") {
			t.Fatalf("rpc %d: err = %v, want the matching reply's error", i, err)
		}
	}
	if seen[0].RequestID == seen[1].RequestID || seen[0].ReplyService == seen[1].ReplyService {
		t.Fatalf("two RPCs shared a request id or reply endpoint: %+v %+v", seen[0], seen[1])
	}
}
