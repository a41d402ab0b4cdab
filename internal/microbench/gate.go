package microbench

import (
	"encoding/json"
	"fmt"
	"os"
)

// DefaultGateTolerance is the allowed fractional ns_per_op regression before
// the benchmark gate fails (25%: wide enough to absorb shared-runner noise,
// tight enough to catch real hot-path regressions).
const DefaultGateTolerance = 0.25

// Regression is one benchmark whose current ns_per_op exceeds the recorded
// baseline by more than the gate tolerance.
type Regression struct {
	Name       string
	BaselineNs float64
	CurrentNs  float64
}

// String renders the regression for the gate's failure report.
func (r Regression) String() string {
	return fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f ns/op (+%.0f%%)",
		r.Name, r.CurrentNs, r.BaselineNs, (r.CurrentNs/r.BaselineNs-1)*100)
}

// Gate compares current results against a recorded baseline and returns
// every regression beyond tolerance. Benchmarks present on only one side are
// ignored: a new benchmark has no baseline to regress from, and a retired
// baseline entry gates nothing.
func Gate(baseline, current []Result, tolerance float64) []Regression {
	if tolerance <= 0 {
		tolerance = DefaultGateTolerance
	}
	base := make(map[string]float64, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r.NsPerOp
	}
	var out []Regression
	for _, r := range current {
		b, ok := base[r.Name]
		if !ok || b <= 0 {
			continue
		}
		if r.NsPerOp > b*(1+tolerance) {
			out = append(out, Regression{Name: r.Name, BaselineNs: b, CurrentNs: r.NsPerOp})
		}
	}
	return out
}

// ScalingCheck asserts that the width-Width variant of a benchmark beats its
// serial variant by at least MinSpeedup (ns_per_op ratio) when the runner
// actually has Width cores to scale onto.
type ScalingCheck struct {
	Serial     string
	Parallel   string
	Width      int
	MinSpeedup float64
}

// DefaultScalingChecks are the morsel-parallel scaling floors gated by
// `make benchgate` on multi-core runners. The floors are deliberately below
// linear: the chains share a morsel source and the joins share a build
// table, so perfect scaling is not on the table, but a multi-core runner
// that shows none of it has lost real parallelism. The stored-scan checks
// hold the batched block scan to a multiple of the tuple-at-a-time cursor's
// throughput on posix, the streaming scan engine's reason to exist: the
// fused decode alone must show 1.5x on any runner, and the full 2x floor is
// held at width 2 because the batched scan is a two-thread pipeline — its
// readahead producer needs a core of its own to overlap block reads with
// decode, which a one-core runner cannot demonstrate. The batch-vs-volcano
// check is the vectorization bar (2x when both run undisturbed), floored
// where a loaded runner still clears it.
func DefaultScalingChecks() []ScalingCheck {
	return []ScalingCheck{
		{Serial: "VolcanoChain", Parallel: "BatchChain", Width: 1, MinSpeedup: 1.5},
		{Serial: "ParallelChain1", Parallel: "ParallelChain2", Width: 2, MinSpeedup: 1.3},
		{Serial: "ParallelChain1", Parallel: "ParallelChain4", Width: 4, MinSpeedup: 2.0},
		{Serial: "ParallelChain1", Parallel: "ParallelChain8", Width: 8, MinSpeedup: 3.0},
		{Serial: "PartitionedJoin1", Parallel: "PartitionedJoin2", Width: 2, MinSpeedup: 1.3},
		{Serial: "PartitionedJoin1", Parallel: "PartitionedJoin4", Width: 4, MinSpeedup: 2.0},
		{Serial: "PartitionedJoin1", Parallel: "PartitionedJoin8", Width: 8, MinSpeedup: 4.0},
		{Serial: "ScanStoredTuple", Parallel: "ScanStoredBatch", Width: 1, MinSpeedup: 1.5},
		{Serial: "ScanStoredTuple", Parallel: "ScanStoredBatch", Width: 2, MinSpeedup: 2.0},
	}
}

// ScalingFailure is one scaling check whose measured speedup fell below the
// floor on a runner wide enough to have shown it.
type ScalingFailure struct {
	Check   ScalingCheck
	Speedup float64
}

// String renders the failure for the gate's report.
func (f ScalingFailure) String() string {
	return fmt.Sprintf("%s vs %s: %.2fx speedup, want >= %.2fx at width %d",
		f.Check.Parallel, f.Check.Serial, f.Speedup, f.Check.MinSpeedup, f.Check.Width)
}

// resultCores is the core budget a result was measured under: GOMAXPROCS
// when recorded, NumCPU as a fallback, and zero for entries from before the
// fields existed (the caller then decides with its own runtime view).
func resultCores(r Result) int {
	if r.GOMAXPROCS > 0 {
		return r.GOMAXPROCS
	}
	return r.NumCPU
}

// GateScaling evaluates the scaling checks against current results. A check
// whose runner had fewer cores than the check's width is skipped with a
// reason — one core cannot demonstrate an eight-way speedup, and failing on
// it would just teach people to ignore the gate. Checks with a missing side
// are likewise skipped, never failed.
func GateScaling(current []Result, checks []ScalingCheck) (fails []ScalingFailure, skipped []string) {
	byName := make(map[string]Result, len(current))
	for _, r := range current {
		byName[r.Name] = r
	}
	for _, c := range checks {
		serial, okS := byName[c.Serial]
		par, okP := byName[c.Parallel]
		if !okS || !okP || serial.NsPerOp <= 0 || par.NsPerOp <= 0 {
			skipped = append(skipped, fmt.Sprintf("%s: missing measurement", c.Parallel))
			continue
		}
		cores := resultCores(par)
		if cores > 0 && cores < c.Width {
			skipped = append(skipped, fmt.Sprintf(
				"%s: runner has %d core(s), width %d needs %d — cannot demonstrate speedup",
				c.Parallel, cores, c.Width, c.Width))
			continue
		}
		speedup := serial.NsPerOp / par.NsPerOp
		if speedup < c.MinSpeedup {
			fails = append(fails, ScalingFailure{Check: c, Speedup: speedup})
		}
	}
	return fails, skipped
}

// LoadBaseline reads a BENCH_micro.json produced by cmd/dqp-experiments.
func LoadBaseline(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Result
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("microbench: parse baseline %s: %w", path, err)
	}
	return out, nil
}
