// Command dqp-experiments regenerates EXPERIMENTS.md: it runs the full
// reproduction of the paper's evaluation — Table 1, Figs. 2–5, the overhead
// analysis, and the monitoring-frequency study — on the calibrated
// simulated Grid and writes the paper-vs-measured report.
//
// Usage:
//
//	dqp-experiments [-o EXPERIMENTS.md] [-only Table1,Fig2a,StoredStreaming]
//
// The full suite takes several minutes of real time: the simulated testbed
// actually executes every query, including the heavily perturbed static
// runs the paper measured. Those are virtual-time results; real wall-clock
// performance is measured by the repository's one benchmark, bench/ (`make
// e2e`, BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
)

// builder is one experiment of the suite, by the name -only selects it by.
type builder struct {
	name string
	fn   func() (*exp.Experiment, error)
}

// all is the suite in report order; -only's help lists it.
var all = []builder{
	{"Table1", exp.Table1},
	{"Fig2a", exp.Fig2a},
	{"Fig2b", exp.Fig2b},
	{"Fig3a", exp.Fig3a},
	{"Fig3b", exp.Fig3b},
	{"Fig4", exp.Fig4},
	{"Fig5", exp.Fig5},
	{"Overheads", exp.Overheads},
	{"MonitoringFrequency", exp.MonitoringFrequency},
	{"Recovery", exp.Recovery},
	{"StoredStreaming", exp.StoredStreaming},
}

func main() {
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.name
	}
	out := flag.String("o", "EXPERIMENTS.md", "output file ('-' for stdout)")
	only := flag.String("only", "", "comma-separated experiment subset ("+strings.Join(names, ",")+")")
	parallel := flag.Int("parallel", 0, "morsel worker-pool width per fragment driver (0/1 serial, negative = GOMAXPROCS)")
	metrics := flag.String("metrics", "", "HTTP listen address for /metrics and /timeline while the suite runs (e.g. :9090; empty disables)")
	memBudget := flag.Int64("mem-budget", 0, "per-query stateful-operator memory budget in bytes; operators spill past it (0 unbudgeted)")
	spillDir := flag.String("spill-dir", "", "directory for posix spill runs (empty spills to memory)")
	tableRows := flag.Int("table-rows", 0, "override protein_sequences cardinality for every run, scaling protein_interactions proportionally (0 keeps each experiment's own size)")
	tableBackend := flag.String("table-backend", "", "generate base tables as block-framed stored runs: 'memory', 'posix' (temp dir), or a posix directory path (empty keeps in-memory tables)")
	flag.Parse()
	exp.DefaultParallelism = *parallel
	exp.DefaultMemoryBudget = *memBudget
	exp.DefaultSpillDir = *spillDir
	exp.DefaultTableRows = *tableRows
	exp.DefaultTableBackend = *tableBackend

	if *metrics != "" {
		srv, bound, err := obs.Serve(*metrics, obs.Default())
		if err != nil {
			fmt.Fprintf(os.Stderr, "dqp-experiments: metrics listener: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observability: http://%s/metrics and /timeline\n", bound)
	}

	selected := all
	if *only != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(name))] = true
		}
		selected = nil
		for _, b := range all {
			if want[strings.ToLower(b.name)] {
				selected = append(selected, b)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "dqp-experiments: no experiment matches %q\n", *only)
			os.Exit(2)
		}
	}

	start := time.Now()
	var experiments []*exp.Experiment
	for _, b := range selected {
		fmt.Fprintf(os.Stderr, "running %-20s ... ", b.name)
		t0 := time.Now()
		e, err := b.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "done in %s\n", time.Since(t0).Round(time.Second))
		experiments = append(experiments, e)
	}
	report := exp.Report(experiments, time.Since(start))
	if *out == "-" {
		fmt.Print(report)
		return
	}
	if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "dqp-experiments: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
