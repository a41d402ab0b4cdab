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
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/simnet"
	"repro/internal/testenv"
	"repro/internal/transport"
	"repro/internal/vtime"
	"repro/internal/ws"
)

// remoteCluster spins a coordinator and three evaluators, each with its own
// TCP transport on localhost — separate transports exactly as separate
// processes would have.
func remoteCluster(t *testing.T, adaptive bool) (*RemoteCoordinator, map[simnet.NodeID]*Evaluator) {
	t.Helper()
	return remoteClusterFor(t, remoteManifest(t, adaptive))
}

// remoteManifest describes the test deployment; under `make lowmem` it picks
// up the forced budget and worker-pool width like every in-process
// coordinator of the suite.
func remoteManifest(t *testing.T, adaptive bool) Manifest {
	m := Manifest{
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
	testenv.Force(t, &m.MemoryBudgetBytes, &m.Parallelism)
	return m
}

var remoteNodeNames = []simnet.NodeID{"coord", "data1", "ws0", "ws1"}

func remoteClusterFor(t *testing.T, manifest Manifest) (*RemoteCoordinator, map[simnet.NodeID]*Evaluator) {
	t.Helper()
	transports := make(map[simnet.NodeID]*transport.TCP, len(remoteNodeNames))
	for _, n := range remoteNodeNames {
		tr, err := transport.NewTCP(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		transports[n] = tr
		t.Cleanup(func() { _ = tr.Close() })
	}
	for _, a := range remoteNodeNames {
		for _, b := range remoteNodeNames {
			if a != b {
				transports[a].AddPeer(b, transports[b].Addr())
			}
		}
	}
	return startParticipants(t, manifest, func(n simnet.NodeID) transport.Transport { return transports[n] })
}

// remoteInProc runs the same coordinator and evaluators over one shared
// in-process transport: the manifest path's "single process" is literally
// transport = inproc — no sockets, no goroutines at rest.
func remoteInProc(t *testing.T, manifest Manifest) (*RemoteCoordinator, map[simnet.NodeID]*Evaluator) {
	t.Helper()
	net := simnet.NewNetwork(vtime.NewClock(manifest.Scale))
	for _, n := range remoteNodeNames {
		net.AddNode(n)
	}
	tr := transport.NewInProc(net)
	return startParticipants(t, manifest, func(simnet.NodeID) transport.Transport { return tr })
}

func startParticipants(t *testing.T, manifest Manifest, transportOf func(simnet.NodeID) transport.Transport) (*RemoteCoordinator, map[simnet.NodeID]*Evaluator) {
	t.Helper()
	evaluators := make(map[simnet.NodeID]*Evaluator)
	for _, n := range remoteNodeNames[1:] {
		ev, err := NewEvaluator(manifest, n, transportOf(n))
		if err != nil {
			t.Fatal(err)
		}
		evaluators[n] = ev
		t.Cleanup(ev.Close)
	}
	coord, err := NewRemoteCoordinator(manifest, transportOf("coord"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord, evaluators
}

// addRemoteServices makes extra Web Services callable on the compute
// evaluators and known to every participant's catalog — what a
// ComputeNodeSpec cannot describe. Call before the first query.
func addRemoteServices(t *testing.T, coord *RemoteCoordinator, evaluators map[simnet.NodeID]*Evaluator, extra ...ws.Service) {
	t.Helper()
	advertise := func(p *participant) {
		cat, _, err := p.metadata()
		if err != nil {
			t.Fatal(err)
		}
		for _, svc := range extra {
			if err := cat.PutFunction(catalog.FunctionMeta{Name: svc.Name(), ArgTypes: svc.ArgTypes(),
				ResultType: svc.ResultType(), CostMs: svc.BaseCostMs()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	advertise(coord.participant)
	for _, ev := range evaluators {
		advertise(ev.participant)
		if ev.local.services != nil {
			for _, svc := range extra {
				ev.local.services.Register(svc)
			}
		}
	}
}

func TestRemoteQ1OverTCP(t *testing.T) {
	// Handles are resolved at construction, so the fresh registry must
	// precede the deployment.
	prev := obs.SetDefault(obs.New())
	t.Cleanup(func() { obs.SetDefault(prev) })
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
	// The remote coordinator runs the session through the same wrapper as
	// the in-process GDQS, so it is counted like any other query.
	o := obs.Default()
	if ok := o.Counter(obs.Label(obs.MQueries, "outcome", "ok")).Value(); ok != 1 {
		t.Errorf(`queries_total{outcome="ok"} = %d after one query, want 1`, ok)
	}
	if open := o.Gauge(obs.MSessionsOpen).Value(); open != 0 {
		t.Errorf("sessions_open = %v after the query, want 0", open)
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
	// 2000 sequences, half of them routed to a machine 50x slower until the
	// Responder steps in: the query outlasts the first diagnosis by a wide
	// margin instead of racing it (at 200 rows it could finish routing
	// first, and "never adapted" about one fresh process in ten).
	manifest := remoteManifest(t, true)
	manifest.DataNodes[0].Sequences = 2000
	coord, evaluators := remoteClusterFor(t, manifest)
	evaluators["ws1"].SetPerturbation(vtime.Multiplier(50))
	res, err := coord.Execute(context.Background(), q1, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2000 {
		t.Fatalf("rows = %d, want 2000 (no loss under remote adaptation)", len(res.Rows))
	}
	st := res.Stats
	if st.Adaptations == 0 {
		t.Error("remote adaptive run never adapted")
	}
	// The whole monitoring-to-response chain is summarised, as in process.
	if st.RawEvents == 0 || st.MEDNotifications == 0 || st.Proposals == 0 {
		t.Errorf("stats miss the AQP traffic: raw %d, notifications %d, proposals %d",
			st.RawEvents, st.MEDNotifications, st.Proposals)
	}
	if len(st.ConsumedByInstance) == 0 {
		t.Error("stats carry no ConsumedByInstance for the coordinator-hosted instances")
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
	manifest := remoteManifest(t, false)
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
	// A host owning only the coordinator's machine, as a RemoteCoordinator's.
	coordOnly := &host{node: "coord", site: func(id simnet.NodeID) *site {
		if id == "coord" {
			return &site{}
		}
		return nil
	}}
	for _, tc := range cases {
		plan := &physical.Plan{Fragments: tc.frags, Coordinator: "coord"}
		order := remoteNodes(plan, coordOnly)
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

// TestRPCReplyEndpoints: every RPC of a coordinator gets a request id of
// its own on the coordinator's one reply endpoint, and a reply carrying
// another id is dropped instead of completing the call.
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
		_, err := coord.rpc.Call(context.Background(), "coord", "peer", &transport.Message{Kind: transport.KindDeploy})
		if err == nil || !strings.Contains(err.Error(), "the real answer") {
			t.Fatalf("rpc %d: err = %v, want the matching reply's error", i, err)
		}
	}
	if seen[0].RequestID == seen[1].RequestID {
		t.Fatalf("two RPCs shared a request id: %+v %+v", seen[0], seen[1])
	}
	if seen[0].ReplyTo != "coord" || seen[0].ReplyService == "" || seen[0].ReplyService != seen[1].ReplyService {
		t.Fatalf("RPCs not addressed to the coordinator's one reply endpoint: %+v %+v", seen[0], seen[1])
	}
}

// TestRemoteParityWithCluster: the manifest deployment over one in-process
// transport and a GDQS on a Cluster holding the same tables return
// byte-identical rows — one session, whoever hosts it.
func TestRemoteParityWithCluster(t *testing.T) {
	manifest := remoteManifest(t, false)
	coord, _ := remoteInProc(t, manifest)

	cluster := NewCluster(ClusterConfig{Scale: manifest.Scale, Costs: manifest.Costs})
	t.Cleanup(cluster.Close)
	if err := cluster.AddDataNode("data1", manifest.DataNodes[0].storeFor()); err != nil {
		t.Fatal(err)
	}
	for _, c := range manifest.Compute {
		if err := cluster.AddComputeNode(c.Node, c.Speed, computeServices(c)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultGDQSConfig()
	cfg.Adaptive = false
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, q := range []string{q1, q2, qJoinAgg} {
		want, err := g.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%s on the cluster: %v", q, err)
		}
		got, err := coord.Execute(context.Background(), q, time.Minute)
		if err != nil {
			t.Fatalf("%s over the manifest: %v", q, err)
		}
		if len(want.Rows) == 0 || !reflect.DeepEqual(sortedRows(got), sortedRows(want)) {
			t.Fatalf("%s: %d rows over the manifest, %d on the cluster, or different bytes",
				q, len(got.Rows), len(want.Rows))
		}
		if q == qJoinAgg {
			for i := range want.Rows {
				if got.Rows[i].Format() != want.Rows[i].Format() {
					t.Fatalf("%s: ordered result differs at row %d", q, i)
				}
			}
		}
	}
}
