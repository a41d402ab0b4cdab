package physical

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/logical"
	"repro/internal/registry"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

func demoCatalog() *catalog.Catalog {
	c := catalog.New()
	_ = c.PutTable(catalog.TableMeta{
		Name: "protein_sequences",
		Schema: relation.NewSchema(
			relation.Column{Table: "protein_sequences", Name: "ORF", Type: relation.TString},
			relation.Column{Table: "protein_sequences", Name: "sequence", Type: relation.TString},
		),
		Cardinality: 3000, AvgTupleBytes: 150, Node: "data1",
	})
	_ = c.PutTable(catalog.TableMeta{
		Name: "protein_interactions",
		Schema: relation.NewSchema(
			relation.Column{Table: "protein_interactions", Name: "ORF1", Type: relation.TString},
			relation.Column{Table: "protein_interactions", Name: "ORF2", Type: relation.TString},
		),
		Cardinality: 4700, AvgTupleBytes: 25, Node: "data1",
	})
	_ = c.PutFunction(catalog.FunctionMeta{
		Name:       "EntropyAnalyser",
		ArgTypes:   []relation.Type{relation.TString},
		ResultType: relation.TFloat,
		CostMs:     10,
	})
	return c
}

func demoRegistry() *registry.Registry {
	r := registry.New()
	_ = r.RegisterCompute("ws0", 1)
	_ = r.RegisterCompute("ws1", 1)
	r.RegisterData("data1", "protein_sequences", "protein_interactions")
	return r
}

func schedule(t *testing.T, q string, opts Options) *Plan {
	t.Helper()
	stmt, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := logical.Plan(stmt, demoCatalog())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Schedule(ln, demoRegistry(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const q1 = "select EntropyAnalyser(p.sequence) from protein_sequences p"
const q2 = "select i.ORF2 from protein_sequences p, protein_interactions i where i.ORF1=p.ORF"

func TestScheduleQ1Topology(t *testing.T) {
	p := schedule(t, q1, Options{Coordinator: "coord"})
	if len(p.Fragments) != 3 {
		t.Fatalf("fragments = %d, want 3 (scan, opcall, collect):\n%s", len(p.Fragments), p.Explain())
	}
	scan, opc, top := p.Fragments[0], p.Fragments[1], p.Fragments[2]

	if scan.Partitioned || len(scan.Instances) != 1 || scan.Instances[0] != "data1" {
		t.Errorf("scan fragment: %+v", scan)
	}
	if scan.Root.Kind != KScan || scan.Root.Table != "protein_sequences" {
		t.Errorf("scan root: %+v", scan.Root)
	}
	if scan.Output == nil || scan.Output.ConsumerFragment != opc.ID || scan.Output.Policy != PolicyWeighted {
		t.Errorf("scan output: %+v", scan.Output)
	}
	if scan.Output.EstTuples != 3000 {
		t.Errorf("scan est = %d", scan.Output.EstTuples)
	}

	if !opc.Partitioned || opc.Stateful || len(opc.Instances) != 2 {
		t.Errorf("opcall fragment: %+v", opc)
	}
	if w := opc.InitialWeights; len(w) != 2 || w[0] != 0.5 || w[1] != 0.5 {
		t.Errorf("initial weights = %v", w)
	}
	// Root is the projection over the opcall over the consume leaf.
	if opc.Root.Kind != KProject || opc.Root.Children[0].Kind != KOpCall {
		t.Errorf("opcall tree:\n%s", p.Explain())
	}
	leaf := opc.Root.Children[0].Children[0]
	if leaf.Kind != KConsume || leaf.Exchange != scan.Output.ID || leaf.NumProducers != 1 {
		t.Errorf("consume leaf: %+v", leaf)
	}

	if top != p.Top() || top.Instances[0] != "coord" || top.Root.Kind != KConsume {
		t.Errorf("top fragment: %+v", top)
	}
	if top.Root.Exchange != opc.Output.ID {
		t.Error("top reads wrong exchange")
	}
	// Output schema of the whole plan is the single entropy column.
	if s := top.Root.OutSchema(); s.Len() != 1 || s.Column(0).Type != relation.TFloat {
		t.Errorf("plan output schema: %v", s)
	}
}

func TestScheduleQ2Topology(t *testing.T) {
	p := schedule(t, q2, Options{Coordinator: "coord"})
	if len(p.Fragments) != 4 {
		t.Fatalf("fragments = %d, want 4:\n%s", len(p.Fragments), p.Explain())
	}
	seqScan, intScan, join, top := p.Fragments[0], p.Fragments[1], p.Fragments[2], p.Fragments[3]

	if seqScan.Root.Table != "protein_sequences" || intScan.Root.Table != "protein_interactions" {
		t.Fatalf("scan order:\n%s", p.Explain())
	}
	// Build side (first FROM table) is stateful and hash-partitioned.
	if seqScan.Output.Policy != PolicyHash || !seqScan.Output.Stateful {
		t.Errorf("build exchange: %+v", seqScan.Output)
	}
	if intScan.Output.Policy != PolicyHash || intScan.Output.Stateful {
		t.Errorf("probe exchange: %+v", intScan.Output)
	}
	// Both hash on ordinal 0 (ORF / ORF1).
	if len(seqScan.Output.KeyOrds) != 1 || seqScan.Output.KeyOrds[0] != 0 ||
		len(intScan.Output.KeyOrds) != 1 || intScan.Output.KeyOrds[0] != 0 {
		t.Errorf("key ords: %v / %v", seqScan.Output.KeyOrds, intScan.Output.KeyOrds)
	}
	if !join.Partitioned || !join.Stateful {
		t.Errorf("join fragment flags: %+v", join)
	}
	if join.EstInputTuples != 3000+4700 {
		t.Errorf("join est input = %d", join.EstInputTuples)
	}
	// The select list's Project([3]) is fused into the join, which emits
	// only i.ORF2.
	jn := join.Root
	if jn.Kind != KJoin || len(jn.Ords) != 1 || jn.Ords[0] != 3 {
		t.Fatalf("join tree:\n%s", p.Explain())
	}
	if len(jn.OutCols) != 1 || jn.OutCols[0].QualifiedName() != "i.ORF2" {
		t.Errorf("join output columns = %v", jn.OutCols)
	}
	if !strings.Contains(p.Explain(), "HashJoin(build=[0] probe=[0] out=[3])") {
		t.Errorf("explain does not show the fused projection:\n%s", p.Explain())
	}
	if jn.Children[0].Exchange != seqScan.Output.ID || jn.Children[1].Exchange != intScan.Output.ID {
		t.Error("join consume wiring")
	}
	if top.Root.Kind != KConsume {
		t.Errorf("top: %+v", top.Root)
	}
}

func TestScheduleWeightsProportionalToSpeed(t *testing.T) {
	reg := registry.New()
	_ = reg.RegisterCompute("ws0", 3)
	_ = reg.RegisterCompute("ws1", 1)
	reg.RegisterData("data1", "protein_sequences")
	stmt, _ := sqlparse.Parse(q1)
	ln, err := logical.Plan(stmt, demoCatalog())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Schedule(ln, reg, Options{Coordinator: "coord"})
	if err != nil {
		t.Fatal(err)
	}
	w := p.Fragments[1].InitialWeights
	if len(w) != 2 || w[0] != 0.75 || w[1] != 0.25 {
		t.Fatalf("weights = %v, want [0.75 0.25]", w)
	}
}

func TestScheduleErrors(t *testing.T) {
	stmt, _ := sqlparse.Parse(q1)
	ln, err := logical.Plan(stmt, demoCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Schedule(ln, demoRegistry(), Options{}); err == nil {
		t.Error("missing coordinator accepted")
	}
	empty := registry.New()
	if _, err := Schedule(ln, empty, Options{Coordinator: "coord"}); err == nil {
		t.Error("no compute resources accepted for partitioned plan")
	}
}

func TestPlanLookupAndExplain(t *testing.T) {
	p := schedule(t, q2, Options{Coordinator: "coord"})
	if p.Fragment("F3") == nil || p.Fragment("nope") != nil {
		t.Error("Fragment lookup")
	}
	if p.Fragment("F2").InstanceID(0) != "F2#0" {
		t.Error("InstanceID format")
	}
	out := p.Explain()
	for _, want := range []string{"HashJoin", "Consume(E1", "partitioned", "stateful", "hash"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestScheduleScanOnlyQuery(t *testing.T) {
	// A pure scan still gets a collect fragment at the coordinator.
	p := schedule(t, "select * from protein_sequences", Options{Coordinator: "coord"})
	if len(p.Fragments) != 2 {
		t.Fatalf("fragments = %d:\n%s", len(p.Fragments), p.Explain())
	}
	if p.Top().Instances[0] != "coord" {
		t.Error("collect not at coordinator")
	}
	if p.Fragments[0].Partitioned {
		t.Error("scan fragment must not be partitioned")
	}
}
