package physical

import (
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/sqlparse"
)

func validPlan(t *testing.T, q string) *Plan {
	t.Helper()
	stmt, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := logical.Plan(stmt, demoCatalog())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Schedule(ln, demoRegistry(), Options{Coordinator: "coord"})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidateAcceptsScheduledPlans(t *testing.T) {
	for _, q := range []string{
		q1, q2,
		"select * from protein_sequences",
		"select count(*) from protein_sequences",
		"select p.ORF from protein_sequences p order by p.ORF limit 5",
	} {
		p := validPlan(t, q)
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%q): %v", q, err)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	corrupt := []struct {
		name string
		mut  func(*Plan)
		want string
	}{
		{"no fragments", func(p *Plan) { p.Fragments = nil }, "no fragments"},
		{"no coordinator", func(p *Plan) { p.Coordinator = "" }, "no coordinator"},
		{"dup fragment", func(p *Plan) { p.Fragments[1].ID = p.Fragments[0].ID }, "duplicate"},
		{"no instances", func(p *Plan) { p.Fragments[0].Instances = nil }, "no instances"},
		{"weight arity", func(p *Plan) { p.Fragments[1].InitialWeights = []float64{1} }, "weights"},
		{"weight sum", func(p *Plan) { p.Fragments[1].InitialWeights = []float64{0.6, 0.6} }, "sum"},
		{"negative weight", func(p *Plan) { p.Fragments[1].InitialWeights = []float64{1.5, -0.5} }, "negative"},
		{"nil root", func(p *Plan) { p.Fragments[0].Root = nil }, "operator tree"},
		{"unknown consumer", func(p *Plan) { p.Fragments[0].Output.ConsumerFragment = "ZZ" }, "unknown consumer"},
		{"top has output", func(p *Plan) {
			p.Top().Output = &ExchangeSpec{ID: "EX", ConsumerFragment: p.Fragments[0].ID}
		}, "output exchange"},
		{"producer arity", func(p *Plan) { p.Top().Root.NumProducers = 9 }, "producers"},
		{"hash without keys", func(p *Plan) {
			p.Fragments[0].Output.Policy = PolicyHash
			p.Fragments[0].Output.KeyOrds = nil
		}, "key ordinals"},
	}
	for _, tc := range corrupt {
		p := validPlan(t, q1)
		tc.mut(p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: validation passed", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestTagIsolatesPlans(t *testing.T) {
	a := validPlan(t, q1)
	b := validPlan(t, q1)
	a.Tag("q1")
	b.Tag("q2")
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range []*Plan{a, b} {
		for _, f := range p.Fragments {
			if seen[f.ID] {
				t.Fatalf("fragment ID %s appears in both plans", f.ID)
			}
			seen[f.ID] = true
			if f.Output != nil && !strings.HasPrefix(f.Output.ID, "q") {
				t.Fatalf("exchange %s not tagged", f.Output.ID)
			}
		}
	}
	// Tagging with "" is a no-op.
	c := validPlan(t, q1)
	before := c.Fragments[0].ID
	c.Tag("")
	if c.Fragments[0].ID != before {
		t.Fatal("empty tag mutated the plan")
	}
}

// TestValidateJoinOut checks the projection fused into a join: its ordinals
// must address build ++ probe, one output column each.
func TestValidateJoinOut(t *testing.T) {
	const analytic = "select p.ORF, count(*) from protein_sequences p, protein_interactions i where p.ORF = i.ORF1 group by p.ORF"
	for _, q := range []string{q2, analytic} {
		if err := validPlan(t, q).Validate(); err != nil {
			t.Errorf("Validate(%q): %v", q, err)
		}
	}
	join := func(p *Plan) *OpSpec { return p.Fragments[2].Root }
	for _, tc := range []struct {
		name string
		mut  func(*Plan)
		want string
	}{
		{"ordinal past probe", func(p *Plan) { join(p).Ords = []int{4} }, "outside its 4 input columns"},
		{"negative ordinal", func(p *Plan) { join(p).Ords = []int{-1} }, "outside"},
		{"arity", func(p *Plan) { join(p).Ords = []int{3, 0} }, "2 ordinals into 1 output columns"},
	} {
		p := validPlan(t, q2)
		if j := join(p); j.Kind != KJoin {
			t.Fatalf("fragment F3 root is %v:\n%s", j.Kind, p.Explain())
		}
		tc.mut(p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
