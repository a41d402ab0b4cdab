package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read zero")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read zero")
	}
	var h *Histogram
	h.Observe(1.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read zero")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry must return nil handles")
	}
	var o *Obs
	o.Counter("x").Inc()
	o.Record(Event{Kind: KindOutcome})
}

func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("tuples_total")
	b := r.Counter("tuples_total")
	if a != b {
		t.Fatal("same name must resolve the same counter")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatal("handles must share state")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.5+0.7+5+50+500; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`lat_ms_bucket{le="1"} 2`,
		`lat_ms_bucket{le="10"} 3`,
		`lat_ms_bucket{le="100"} 4`,
		`lat_ms_bucket{le="+Inf"} 5`,
		`lat_ms_count 5`,
		"# TYPE lat_ms histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledMetricsExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("engine_tuples_produced_total", "fragment", "q1/F2")).Add(42)
	r.Counter(Label("engine_tuples_produced_total", "fragment", "q1/F0")).Add(7)
	r.Gauge("sessions_open").Set(1)
	r.Help("engine_tuples_produced_total", "tuples produced per fragment")
	h := r.Histogram(Label("batch_size", "fragment", "q1/F2"), []float64{16, 256})
	h.Observe(100)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP engine_tuples_produced_total tuples produced per fragment",
		"# TYPE engine_tuples_produced_total counter",
		`engine_tuples_produced_total{fragment="q1/F0"} 7`,
		`engine_tuples_produced_total{fragment="q1/F2"} 42`,
		"# TYPE sessions_open gauge",
		"sessions_open 1",
		`batch_size_bucket{fragment="q1/F2",le="16"} 0`,
		`batch_size_bucket{fragment="q1/F2",le="+Inf"} 1`,
		`batch_size_sum{fragment="q1/F2"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, not per labeled series.
	if n := strings.Count(out, "# TYPE engine_tuples_produced_total counter"); n != 1 {
		t.Errorf("TYPE line emitted %d times, want 1", n)
	}
}

func TestLabelEscaping(t *testing.T) {
	got := Label("m", "k", `a"b\c`)
	want := `m{k="a\"b\\c"}`
	if got != want {
		t.Fatalf("Label = %q, want %q", got, want)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h", DefBucketsSize)
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 300))
				r.Gauge("g").Set(int64(j))
			}
		}()
	}
	var wgRead sync.WaitGroup
	wgRead.Add(1)
	go func() {
		defer wgRead.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			r.WritePrometheus(&sb)
		}
	}()
	wg.Wait()
	wgRead.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

// TestObsOverheadWithinBudget pins the structural half of the observability
// bar: the per-batch registry traffic of an instrumented fragment driver —
// one counter add and one histogram observation on handles resolved at
// construction — allocates nothing, live or disabled (nil handles). The
// wall-clock half is the end-to-end benchmark's business.
func TestObsOverheadWithinBudget(t *testing.T) {
	for name, o := range map[string]*Obs{"live": New(), "disabled": nil} {
		produced := o.Counter(Label(MEngineTuplesProduced, "fragment", "bench"))
		batchSize := o.Histogram(MEngineBatchSize, DefBucketsSize)
		if a := testing.AllocsPerRun(100, func() {
			produced.Add(256)
			batchSize.Observe(256)
		}); a != 0 {
			t.Errorf("%s handles: %v allocs per batch, monitoring must not allocate", name, a)
		}
	}
}
