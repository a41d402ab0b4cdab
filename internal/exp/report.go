package exp

import (
	"fmt"
	"strings"
	"time"
)

// Report renders the complete paper-vs-measured reproduction document (the
// contents of EXPERIMENTS.md).
func Report(experiments []*Experiment, elapsed time.Duration) string {
	var b strings.Builder
	b.WriteString(`# EXPERIMENTS — paper vs. measured

Reproduction of the evaluation of *"Adapting to Changing Resource
Performance in Grid Query Processing"* (Gounaris et al., VLDB DMG 2005,
LNCS 3836). Every run reports response time normalised to the same query's
**no adaptivity / no imbalance** execution, exactly as the paper does, so
the absolute time scale of the simulated testbed cancels out.

Regenerate with: ` + "`go run ./cmd/dqp-experiments`" + ` or
` + "`go test -bench . -benchtime 1x .`" + `

## Setup

- Simulated Grid: 1 data node, 2 WS/compute nodes (3 for Fig. 4),
  coordinator, 100 Mbps links (see internal/simnet).
- Q1: ` + "`" + Q1 + "`" + ` (3000 tuples).
- Q2: ` + "`" + Q2 + "`" + ` (4700 interactions).
- Defaults as in the paper (§3.1): M1 every 10 tuples, M2 per buffer,
  window 25 events (min/max discarded), thresM 20%, thresA 20%,
  assessment A1, same-machine communication cost zero.
- Calibration (see exp.DefaultCalibration and DESIGN.md): EntropyAnalyser
  10 paper-ms/call; retrieval/serialisation 1 ms + 0.055 ms/byte per tuple;
  hash-join probe 2 ms; service creation 5000 ms (GT3) + 2500 ms for the
  adaptivity components; R1 log management 1.3 ms/tuple.
- Values marked ≈ are read off the paper's figures (the paper reports them
  only graphically).

## Intra-fragment parallelism (morsel worker pool)

A stateless fragment driver feeding an exchange (scans, filters,
projections and web-service calls) can run as a pool of N workers pulling
batch-sized morsels from a shared source (` + "`dqp-experiments -parallel N`" + `,
default serial; DESIGN.md §5f). Joins, aggregates, sorts and the
coordinator's result sink run one driver per instance, and so does every
instance of a fault-tolerant (elastic) session, whose commit pairing of
held outputs with processed-input acks assumes one puller. Real wall-clock
performance is measured by the repository's one benchmark, bench/
(` + "`make e2e`" + `, metrics and bounds in BENCHMARK.json), which drives six
oracle-checked workloads through the production entry points. The pool's
width is priced through the production driver by
` + "`go test ./internal/engine -run '^$' -bench FragmentParallel`" + ` (widths 1, 2
and 4; reported, never gated).
Only an exchange that feeds an adaptable (partitioned) fragment keeps a
recovery log, checkpoints and acknowledgements, because only those are
recalled, evicted or replayed; the R1 log-management cost is charged where
a log is kept. A run without adaptivity keeps no log.

`)
	for _, e := range experiments {
		b.WriteString(e.Render())
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\n---\nGenerated in %s (real time).\n", elapsed.Round(time.Second))
	return b.String()
}
