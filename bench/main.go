// Command bench is griddqp's end-to-end benchmark: six workloads through the
// production entry points (services.GDQS.Execute,
// services.RemoteCoordinator.Execute, exp.Run), every result checked against
// an independent reference, end-to-end metrics from an untraced pass and
// per-layer metrics from a traced one. README.md in this directory explains
// the workloads, the metrics and how to read the output.
//
// With no flags it runs every workload, both passes, and prints a report.
// With -workload NAME -trace 0|1 it runs one pass of one workload and prints
// one JSON object as its last line, the form BENCHMARK.json's command uses.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// options are the parsed flags.
type options struct {
	seed      int64
	seconds   float64
	smoke     bool
	workloads []workload
	// trace is "" (both passes, report), "0" (untraced pass) or "1" (traced
	// pass).
	trace     string
	traceFile string
	jsonFile  string
	repeat    int
	// setups is how many times the untraced pass sets the workload up;
	// setup_s is their median.
	setups int
}

// duration converts a share of the measuring time to a time.Duration.
func (o options) duration(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in, so the test can call
// it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o     options
		names string
	)
	fs.Int64Var(&o.seed, "seed", 1, "seed for table contents, literal rotation, shape order and the perturbed WS node")
	fs.Float64Var(&o.seconds, "seconds", 12, "seconds each workload's pass measures")
	fs.BoolVar(&o.smoke, "smoke", false, "a twentieth of the table sizes and durations, for tests")
	fs.StringVar(&names, "workload", "", "comma-separated workloads to run (default all)")
	fs.StringVar(&o.trace, "trace", "", "run one pass of one workload and end with a JSON line: 0 end-to-end, 1 per-layer")
	fs.StringVar(&o.traceFile, "tracefile", "", "write the traced pass's spans here, one JSON object per line (default bench_trace.jsonl in report mode)")
	fs.StringVar(&o.jsonFile, "json", "", "write the report as JSON here")
	fs.IntVar(&o.repeat, "repeat", 1, "run this many sets of end-to-end passes, each with the next seed, and print their spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.setups = 5
	if o.smoke {
		o.seconds /= 20
		o.setups = 1
	}
	if names == "" {
		o.workloads = workloads
	}
	for _, name := range strings.Split(names, ",") {
		if name == "" {
			continue
		}
		found := false
		for _, w := range workloads {
			if w.name == name {
				o.workloads = append(o.workloads, w)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
			return 2
		}
	}
	switch o.trace {
	case "":
		return report(o, stdout, stderr)
	case "0", "1":
		if len(o.workloads) != 1 {
			fmt.Fprintln(stderr, "bench: -trace takes exactly one -workload")
			return 2
		}
		return single(o, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "bench: -trace %q: want 0 or 1\n", o.trace)
		return 2
	}
}

// passResult is one pass of one workload.
type passResult struct {
	Workload  string
	Seed      int64
	Attempted int
	Failed    int
	Metrics   metrics
	// tail is the printed-only tail latency: the highest percentile with at
	// least ten samples beyond it, empty when the pass has too few samples.
	tail string
	err  error
}

func (p passResult) correct() bool { return p.err == nil && p.Failed == 0 && p.Attempted > 0 }

// single is the BENCHMARK.json command form: one pass, one JSON last line.
func single(o options, stdout, stderr io.Writer) int {
	w := o.workloads[0]
	printHeader(stdout, hostInfo())
	var (
		res  passResult
		defs = endToEnd
	)
	if o.trace == "0" {
		res = untraced(w, o, o.seed)
	} else {
		defs = perLayer
		rec := newRecorder(w.name)
		res = traced(w, o, rec)
		if o.traceFile != "" && res.err == nil {
			res.err = writeTrace(o.traceFile, rec.spans)
		}
	}
	if res.err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, res.err)
	}
	printMetrics(stdout, w.name, defs, res.Metrics)
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.correct(), max(res.Attempted, 1), res.Failed, map[string]map[string]any{}}
	if res.Attempted == 0 {
		out.Failed = 1
	}
	for _, d := range defs {
		out.Metrics[d.Name] = map[string]any{"value": res.Metrics[d.Name].V, "unit": d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.correct() {
		return 1
	}
	return 0
}

// report is the no-flag form: every selected workload, -repeat sets of
// untraced passes, one traced pass each, a printed table and the trace file.
func report(o options, stdout, stderr io.Writer) int {
	host := hostInfo()
	printHeader(stdout, host)
	code := 0
	note := func(p passResult) {
		if p.err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", p.Workload, p.err)
		}
		if !p.correct() {
			code = 1
		}
	}
	type workloadReport struct {
		Workload string             `json:"workload"`
		Why      string             `json:"why"`
		Sets     []map[string]value `json:"end_to_end_sets"`
		PerLayer map[string]value   `json:"per_layer"`
		Failed   int                `json:"failed"`
	}
	var (
		reports []workloadReport
		spans   []span
	)
	for _, w := range o.workloads {
		rep := workloadReport{Workload: w.name, Why: w.why}
		fmt.Fprintf(stdout, "\n== %s: %s\n", w.name, w.why)
		var sets []metrics
		for r := 0; r < o.repeat; r++ {
			res := untraced(w, o, o.seed+int64(r))
			note(res)
			rep.Failed += res.Failed
			sets = append(sets, res.Metrics)
			rep.Sets = append(rep.Sets, res.Metrics)
			fmt.Fprintf(stdout, "-- end to end, seed %d: %d operations, %d failed\n", res.Seed, res.Attempted, res.Failed)
			printMetrics(stdout, w.name, endToEnd, res.Metrics)
			if res.tail != "" {
				fmt.Fprintf(stdout, "%-16s %s (printed only: the highest percentile with ten samples beyond it)\n", w.name, res.tail)
			}
		}
		if o.repeat > 1 {
			printSpread(stdout, w.name, sets)
		}
		rec := newRecorder(w.name)
		res := traced(w, o, rec)
		note(res)
		rep.Failed += res.Failed
		rep.PerLayer = res.Metrics
		fmt.Fprintf(stdout, "-- per layer (traced pass), seed %d: %d operations, %d failed\n", res.Seed, res.Attempted, res.Failed)
		printMetrics(stdout, w.name, perLayer, res.Metrics)
		printSelfTimes(stdout, analyse(rec.spans))
		spans = append(spans, rec.spans...)
		reports = append(reports, rep)
	}
	traceFile := o.traceFile
	if traceFile == "" {
		traceFile = "bench_trace.jsonl"
	}
	if err := writeTrace(traceFile, spans); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		code = 1
	} else {
		fmt.Fprintf(stdout, "\ntrace: %d spans recorded, the first %d operations of each workload written to %s\n",
			len(spans), traceFileOps, traceFile)
	}
	if o.jsonFile != "" {
		data, err := json.MarshalIndent(map[string]any{"host": host, "workloads": reports}, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: -json: %v\n", err)
			code = 1
		}
	}
	if code != 0 {
		fmt.Fprintln(stdout, "FAILED: an operation errored or returned rows differing from the reference")
	}
	return code
}

// scratch makes a fresh directory for one set-up under .bench_build/tmp of
// the working directory, so the benchmark writes only inside its checkout.
func scratch(workload string) (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, workload+"-")
}

// setUp builds the workload in a fresh scratch directory; release tears it
// down and removes the directory.
func setUp(w workload, o options, seed int64) (inst *instance, release func(), took time.Duration, err error) {
	dir, err := scratch(w.name)
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	inst, err = w.build(env{seed: seed, dir: dir, smoke: o.smoke})
	took = time.Since(t0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	inst.pos = make([]int, inst.clients)
	return inst, func() { inst.close(); os.RemoveAll(dir) }, took, nil
}

// untraced is the end-to-end pass: set the workload up o.setups times
// (setup_s is the median), warm up, then measure for o.seconds with tracing
// off.
func untraced(w workload, o options, seed int64) passResult {
	res := passResult{Workload: w.name, Seed: seed, Metrics: metrics{}}
	prev := obs.SetDefault(obs.New())
	defer obs.SetDefault(prev)
	var (
		inst    *instance
		release func()
		setups  []float64
	)
	// Cheap set-ups are repeated further, up to three times as often, while
	// they have together taken under a second: a millisecond-scale set-up
	// needs more samples for a steady median.
	for r := 0; r < o.setups || (r < 3*o.setups && sum(setups) < 1); r++ {
		if release != nil {
			release()
		}
		var took time.Duration
		inst, release, took, res.err = setUp(w, o, seed)
		if res.err != nil {
			return res
		}
		setups = append(setups, took.Seconds())
	}
	defer release()
	if res.err = warm(inst); res.err != nil {
		return res
	}
	ph := drive(inst, o.duration(1), nil)
	res.Attempted, res.Failed, res.err = ph.attempted, ph.failed, ph.firstErr

	lat := sorted(ph.latMs)
	n := ph.ok()
	if p, ok := tailPercentile(n); ok {
		res.tail = fmt.Sprintf("latency_ms_p%.0f %.6g ms n=%d", p*100, quantile(lat, p), n)
	}
	ops := math.Max(float64(n), 1)
	res.Metrics = metrics{
		"setup_s":            {median(setups), len(setups)},
		"ops_per_s":          {float64(n) / ph.wall.Seconds(), n},
		"input_tuples_per_s": {float64(ph.input) / ph.wall.Seconds(), n},
		"latency_ms_p50":     {quantile(lat, 0.50), n},
		"cpu_ms_per_op":      {float64(ph.cpu) / 1e6 / ops, n},
		"alloc_mb_per_op":    {float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc) / 1e6 / ops, n},
		"allocs_per_op":      {float64(ph.mem1.Mallocs-ph.mem0.Mallocs) / ops, n},
	}
	return res
}

// frontendSpans are the serving front-end stages; the rest of a GDQS.Execute
// call is the session.
var frontendSpans = []string{"sqlparse.normalize", "plancache.get", "logical.plan", "physical.schedule", "physical.bind"}

// traced is the per-layer pass: set up once under a fresh obs registry, warm
// up, run a plain stretch (exact per-query counts from the registry, the
// untraced latency to compare with), then a traced stretch in which every
// operation is preceded by its layer replays, then the measurements that
// belong to no single operation.
func traced(w workload, o options, rec *recorder) passResult {
	res := passResult{Workload: w.name, Seed: o.seed, Metrics: metrics{}}
	registry := obs.New()
	prev := obs.SetDefault(registry)
	defer obs.SetDefault(prev)
	inst, release, _, err := setUp(w, o, o.seed)
	if err != nil {
		res.err = err
		return res
	}
	defer release()
	if res.err = warm(inst); res.err != nil {
		return res
	}
	m := res.Metrics
	m["vtime.sleep_overshoot_us"] = value{sleepOvershootUs(200), 200}

	before := snapshot(registry)
	plain := drive(inst, o.duration(0.3), nil)
	after := snapshot(registry)
	tr := drive(inst, o.duration(0.5), rec)
	res.Attempted = plain.attempted + tr.attempted
	res.Failed = plain.failed + tr.failed
	if res.err = plain.firstErr; res.err == nil {
		res.err = tr.firstErr
	}

	// Counts, exact per query, from the plain stretch.
	queries := plain.ok() * inst.queriesPerOp
	delta := func(name string) float64 { return after[name] - before[name] }
	perQuery := func(metric, counter string) {
		m[metric] = value{delta(counter) / math.Max(float64(queries), 1), queries}
	}
	perQuery("storage.blocks_per_query", obs.MScanBlocksRead)
	perQuery("storage.spill_bytes_per_query", obs.MSpillBytes)
	perQuery("storage.spill_partitions_per_query", obs.MSpillPartitions)
	perQuery("storage.spill_restarts_per_query", obs.MSpillRestarts)
	perQuery("engine.exchange_tuples_routed_per_query", obs.MExchangeTuplesRouted)
	perQuery("engine.exchange_buffers_per_query", obs.MExchangeBuffersSent)
	perQuery("transport.messages_per_query", obs.MTransportMessages)
	perQuery("bus.published_per_query", obs.MBusPublished)
	perQuery("bus.dropped_per_query", obs.MBusDropped)
	perQuery("plancache.evictions_per_query", obs.MPlanCacheEvictions)
	if lookups := delta(obs.MPlanCacheHits) + delta(obs.MPlanCacheMisses); lookups > 0 {
		m["plancache.hit_rate"] = value{delta(obs.MPlanCacheHits) / lookups, int(lookups)}
	}
	if calls := delta(obs.MRPCLatency + "_count"); calls > 0 {
		m["transport.rpc_latency_ms_mean"] = value{delta(obs.MRPCLatency+"_sum") / calls, int(calls)}
	}
	m["services.admission_queue_ms_sum"] = value{delta(obs.MAdmissionQueueMs + "_sum"), int(delta(obs.MAdmissionQueueMs + "_count"))}
	m["runtime.gc_pause_ms_per_query"] = value{
		float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs) / 1e6 / math.Max(float64(queries), 1), queries}

	// Timings from the traced stretch's spans.
	st := analyse(rec.spans)
	med := func(metric, spanName string, scale float64) {
		if d := st.durs[spanName]; len(d) > 0 {
			m[metric] = value{median(d) * scale, len(d)}
		}
	}
	unit := func(metric, spanName string, scale float64) {
		if d := st.perUnit[spanName]; len(d) > 0 {
			m[metric] = value{median(d) * scale, len(d)}
		}
	}
	med("sqlparse.normalize_us", "sqlparse.normalize", 1e-3)
	med("logical.plan_us", "logical.plan", 1e-3)
	med("physical.schedule_us", "physical.schedule", 1e-3)
	med("physical.bind_us", "physical.bind", 1e-3)
	med("plancache.get_ns", "plancache.get", 1)
	unit("relation.decode_ns_per_tuple", "relation.decode", 1)
	unit("engine.scan_ns_per_tuple", "engine.scan", 1)
	unit("engine.join_ns_per_tuple", "engine.join", 1)
	unit("engine.join_spill_ns_per_tuple", "engine.join_spill", 1)
	unit("engine.agg_ns_per_tuple", "engine.agg", 1)
	unit("engine.sort_ns_per_tuple", "engine.sort", 1)
	unit("engine.exchange_ns_per_tuple", "engine.exchange", 1)
	unit("transport.wire_marshal_ns_per_tuple", "transport.wire_marshal", 1)
	unit("transport.wire_unmarshal_ns_per_tuple", "transport.wire_unmarshal", 1)
	unit("transport.tcp_send_us", "transport.tcp_send", 1e-3)
	if d := st.perUnit["storage.block_read"]; len(d) > 0 {
		// ns per byte to MB per second.
		m["storage.block_read_mb_per_s"] = value{1e3 / median(d), len(d)}
	}
	if st.ops > 0 && st.rootNs > 0 {
		var front float64
		for _, name := range frontendSpans {
			for _, d := range st.durs[name] {
				front += d
			}
		}
		if len(st.durs["sqlparse.normalize"]) > 0 {
			m["services.session_us"] = value{(st.rootNs - front) / float64(st.ops) / 1e3, st.ops}
			m["services.frontend_share"] = value{front / st.rootNs, st.ops}
		}
		m["bench.unattributed_share"] = value{st.selfNs[rootSpan] / st.rootNs, st.ops}
		if base := median(plain.latMs); base > 0 {
			m["bench.trace_overhead_share"] = value{median(st.durs[rootSpan])/1e6/base - 1, st.ops}
		}
	}
	if inst.layers != nil && res.err == nil {
		res.err = inst.layers(m)
	}
	return res
}

// snapshot reads every counter and histogram sum/count of the registry,
// summed over label values, from its Prometheus exposition — the system's
// own /metrics output.
func snapshot(o *obs.Obs) map[string]float64 {
	var b strings.Builder
	o.Registry().WritePrometheus(&b)
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// hostInfo is what every output records about where it ran, so a number is
// never read without its hardware.
func hostInfo() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	load := "unknown"
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) >= 3 {
			load = strings.Join(f[:3], " ")
		}
	}
	return map[string]any{
		"num_cpu":                  runtime.NumCPU(),
		"gomaxprocs":               runtime.GOMAXPROCS(0),
		"go":                       runtime.Version(),
		"commit":                   commit,
		"loadavg":                  load,
		"vtime.sleep_overshoot_us": sleepOvershootUs(100),
	}
}

func printHeader(w io.Writer, h map[string]any) {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "# griddqp bench")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%v", k, h[k])
	}
	fmt.Fprintln(w)
}

// printMetrics prints every metric of defs by name with unit and sample
// count.
func printMetrics(w io.Writer, workload string, defs []metricDef, m metrics) {
	for _, d := range defs {
		v := m[d.Name]
		fmt.Fprintf(w, "%-16s %-42s %16.6g %-6s n=%d\n", workload, d.Name, v.V, d.Unit, v.N)
	}
}

// printSelfTimes prints where the traced operations' time went: each span's
// self time as a share of the root spans, ending with the root's own — the
// unattributed share.
func printSelfTimes(w io.Writer, st spanStats) {
	if st.rootNs == 0 {
		return
	}
	names := make([]string, 0, len(st.selfNs))
	for name := range st.selfNs {
		if name != rootSpan && name != "" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "-- self time as a share of %d root spans (mean %.3f ms)\n", st.ops, st.rootNs/float64(st.ops)/1e6)
	for _, name := range names {
		fmt.Fprintf(w, "   %-28s %8.4f\n", name, st.selfNs[name]/st.rootNs)
	}
	fmt.Fprintf(w, "   %-28s %8.4f\n", "(unattributed)", st.selfNs[rootSpan]/st.rootNs)
}

// printSpread prints, per end-to-end metric, the median and quartiles over
// the sets and whether the quartile spread stays inside the metric's bound;
// a metric that does not is reported unresolved.
func printSpread(w io.Writer, workload string, sets []metrics) {
	fmt.Fprintf(w, "-- spread over %d sets\n", len(sets))
	for _, d := range endToEnd {
		xs := make([]float64, len(sets))
		for i, s := range sets {
			xs[i] = s[d.Name].V
		}
		q1, q2, q3 := quartiles(xs)
		spread := (q3 - q1) / q2
		verdict := "within bound"
		if d.Name != "setup_s" && spread > d.Bound {
			verdict = "unresolved"
		}
		fmt.Fprintf(w, "%-16s %-20s median %14.6g  q1 %14.6g  q3 %14.6g  spread %6.3f  bound %.2f  %s\n",
			workload, d.Name, q2, q1, q3, spread, d.Bound, verdict)
	}
}
