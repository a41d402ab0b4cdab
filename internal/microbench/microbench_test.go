package microbench

import "testing"

func BenchmarkTupleEncode(b *testing.B)       { TupleEncode(b) }
func BenchmarkTupleDecode(b *testing.B)       { TupleDecode(b) }
func BenchmarkProducerSendBatch(b *testing.B) { ProducerSendBatch(b) }

// BenchmarkBusPublishDeliver compares the bounded subscription ring (block
// overflow policy) against the legacy unbounded grow policy it replaced.
func BenchmarkBusPublishDeliver(b *testing.B) {
	b.Run("bounded", BusPublishDeliverBounded)
	b.Run("unbounded", BusPublishDeliverUnbounded)
}

// BenchmarkVolcanoVsBatch runs the same scan→select→project drain through
// both execution models; compare the subbenchmarks' ns/op, allocs/op and
// tuples/sec directly.
func BenchmarkVolcanoVsBatch(b *testing.B) {
	b.Run("volcano", VolcanoChain)
	b.Run("batch", BatchChain)
}

// BenchmarkObsMonitoringOverhead compares the batch drain with live registry
// handles against the same drain with instrumentation disabled.
func BenchmarkObsMonitoringOverhead(b *testing.B) {
	b.Run("instrumented", ObsMonitoringOverhead)
	b.Run("baseline", ObsMonitoringOverheadBaseline)
}

// The wall-clock halves of the two acceptance bars below are not assertions
// of `go test`: a ratio of two timings taken on a loaded two-core machine
// fails at random. BenchmarkObsMonitoringOverhead prints the instrumented /
// baseline pair, and `make benchgate` holds BatchChain to a multiple of
// VolcanoChain (DefaultScalingChecks). What stays here is what repeats
// exactly.

// TestObsOverheadWithinBudget pins the structural half of the observability
// bar: live registry handles on the hot path allocate nothing the
// uninstrumented drain does not.
func TestObsOverheadWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison")
	}
	base := testing.Benchmark(ObsMonitoringOverheadBaseline)
	inst := testing.Benchmark(ObsMonitoringOverhead)
	if inst.AllocsPerOp() > base.AllocsPerOp() {
		t.Errorf("instrumented drain %d allocs/op vs baseline %d: monitoring must not allocate",
			inst.AllocsPerOp(), base.AllocsPerOp())
	}
}

// TestBatchBeatsVolcano pins the structural half of the vectorization bar:
// the batch path must not allocate more than the volcano path. (The paths
// used to differ 5x on allocations, but the scalar Next paths now carve
// output tuples from the same operator arenas the batch paths use, so the
// counts converged — the win that remains is per-tuple call overhead, which
// the bench gate measures.)
func TestBatchBeatsVolcano(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison")
	}
	v := testing.Benchmark(VolcanoChain)
	bt := testing.Benchmark(BatchChain)
	if bt.AllocsPerOp() > v.AllocsPerOp() {
		t.Errorf("batch path %d allocs/op vs volcano %d: must not allocate more", bt.AllocsPerOp(), v.AllocsPerOp())
	}
}

// BenchmarkParallelChain sweeps the morsel pool width over the same chain
// BatchChain drains serially.
func BenchmarkParallelChain(b *testing.B) {
	b.Run("w1", ParallelChain1)
	b.Run("w2", ParallelChain2)
	b.Run("w4", ParallelChain4)
	b.Run("w8", ParallelChain8)
}

// BenchmarkPartitionedJoin sweeps the worker count over the shared-state
// partitioned hash join.
func BenchmarkPartitionedJoin(b *testing.B) {
	b.Run("w1", PartitionedJoin1)
	b.Run("w2", PartitionedJoin2)
	b.Run("w4", PartitionedJoin4)
	b.Run("w8", PartitionedJoin8)
}

func BenchmarkTupleDecodeIntoArena(b *testing.B) { TupleDecodeInto(b) }

// BenchmarkStoredScan prices the streaming scan engine: the posix table
// drained tuple-at-a-time through the run cursor versus batch-at-a-time
// through the block scan, and the readahead producer on versus off.
func BenchmarkStoredScan(b *testing.B) {
	b.Run("tuple", ScanStoredTuple)
	b.Run("batch", ScanStoredBatch)
	b.Run("readahead-on", ScanReadaheadOn)
	b.Run("readahead-off", ScanReadaheadOff)
}

// BenchmarkSpill prices the memory-governed paths: the grace-hash join and
// the external merge sort with 3/4 of their state going through storage.
func BenchmarkSpill(b *testing.B) {
	b.Run("join", SpillJoin)
	b.Run("sort", ExternalSort)
}

// TestGate exercises the benchmark regression gate's comparison rules.
func TestGate(t *testing.T) {
	baseline := []Result{
		{Name: "A", NsPerOp: 100},
		{Name: "B", NsPerOp: 100},
		{Name: "Retired", NsPerOp: 50},
	}
	current := []Result{
		{Name: "A", NsPerOp: 124},  // +24%: within tolerance
		{Name: "B", NsPerOp: 130},  // +30%: regression
		{Name: "New", NsPerOp: 10}, // no baseline: ignored
	}
	regs := Gate(baseline, current, 0.25)
	if len(regs) != 1 || regs[0].Name != "B" {
		t.Fatalf("regressions = %v, want exactly B", regs)
	}
	if regs[0].String() == "" {
		t.Error("empty regression description")
	}
	if got := Gate(baseline, baseline, 0); got != nil {
		t.Fatalf("identical results flagged: %v", got)
	}
}
