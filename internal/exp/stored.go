package exp

import (
	"fmt"
	"math"
	"os"

	"repro/internal/obs"
	"repro/internal/services"
)

// storedScaleSeqs sizes the streaming-scan experiment's stored tables:
// 4x the paper's demo cardinality, large enough that both tables together
// dwarf the configured memory budget by the acceptance floor below while
// keeping the run in experiment-suite time.
const storedScaleSeqs = 12000

// storedBudgetRatio is the floor the experiment holds: stored table bytes
// must be at least this multiple of the query memory budget, so the scan
// genuinely streams and stateful operators genuinely spill.
const storedBudgetRatio = 16

// StoredStreaming measures the streaming scan engine (DESIGN.md §5k),
// which has no paper counterpart: Q2's join evaluated over posix-stored
// block-framed tables many times the query's memory budget, against the
// same query over in-memory tables with no budget. The rows report the
// table-bytes-to-budget ratio, result divergence (must be zero — the
// stored, budgeted run is byte-identical), stored blocks read,
// and the leak checks: inflight budget bytes after the query must be zero.
func StoredStreaming() (*Experiment, error) {
	e := &Experiment{
		ID:    "Streaming",
		Title: "Q2 over posix-stored tables ≫ memory budget (streaming scan engine, beyond the paper)",
	}
	ints := storedScaleSeqs * 47 / 30 // the demo 3000:4700 ratio
	cfg := Config{Query: Q2, Sequences: storedScaleSeqs, Interactions: ints}

	// Reference: in-memory tables, unlimited memory.
	want, err := Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: streaming reference run: %w", err)
	}

	// Stored: the same query over posix block runs under a budget derived
	// from the catalog's stored volume. The table-backend/budget/spill hooks
	// are the same
	// package-level defaults the dqp-experiments flags use; save/restore
	// them so the rest of the suite is unaffected.
	spillDir, err := os.MkdirTemp("", "dqp-exp-spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir)
	savedBackend, savedBudget, savedSpill := DefaultTableBackend, DefaultMemoryBudget, DefaultSpillDir
	defer func() {
		DefaultTableBackend, DefaultMemoryBudget, DefaultSpillDir = savedBackend, savedBudget, savedSpill
	}()
	DefaultTableBackend = "posix"
	DefaultSpillDir = spillDir

	var totalBytes int64
	storedCfg := cfg
	storedCfg.OnCluster = func(c *services.Cluster) {
		// The data node is registered by now: size the budget from the
		// catalog's stored volume so the ratio holds at any scale.
		for _, name := range []string{"protein_sequences", "protein_interactions"} {
			meta, err := c.Catalog().Table(name)
			if err == nil {
				totalBytes += meta.TotalBytes
			}
		}
		DefaultMemoryBudget = totalBytes / storedBudgetRatio
	}

	o := obs.Default()
	blocks0 := o.Counter(obs.MScanBlocksRead).Value()
	got, err := Run(storedCfg)
	if err != nil {
		return nil, fmt.Errorf("exp: streaming stored run: %w", err)
	}
	blocksRead := o.Counter(obs.MScanBlocksRead).Value() - blocks0
	if totalBytes == 0 || DefaultMemoryBudget == 0 {
		return nil, fmt.Errorf("exp: streaming run never sized its budget from the catalog")
	}
	if blocksRead == 0 {
		return nil, fmt.Errorf("exp: streaming run never read stored blocks")
	}

	e.Rows = append(e.Rows,
		Measurement{Label: "stored table bytes / memory budget", Paper: math.NaN(),
			Measured: float64(totalBytes) / float64(DefaultMemoryBudget)},
		Measurement{Label: "result rows diverging from in-memory unbudgeted run", Paper: math.NaN(),
			Measured: float64(divergingRows(got.Rows, want.Rows))},
		Measurement{Label: "stored blocks read", Paper: math.NaN(), Measured: float64(blocksRead)},
		Measurement{Label: "mem_inflight_bytes after query", Paper: math.NaN(),
			Measured: float64(o.Gauge(obs.MMemInflight).Value())},
		Measurement{Label: "response vs in-memory unbudgeted run", Paper: math.NaN(),
			Measured: got.ResponseMs / want.ResponseMs},
	)
	e.Notes = append(e.Notes,
		"The streaming scan engine is an extension (DESIGN.md §5k); there are no paper values. Tables are "+
			"generated as block-framed posix runs and scanned batch-at-a-time, each block reserved against the memory budget while it is decoded; "+
			"the memory budget is sized from the catalog's stored volume so the tables dwarf it by design.",
		"Divergence is compared tuple for tuple against the in-memory, unbudgeted run — storage backend and "+
			"memory budget change where bytes live and when they move, never the result.",
		"`make bigtable` runs the same scenario as a test (GRIDDQP_BIGTABLE_ROWS scales it); "+
			"the stored scan's wall-clock cost is the `storage.block_read_mb_per_s`, `relation.decode_ns_per_tuple` "+
			"and `engine.scan_ns_per_tuple` layers of the end-to-end benchmark (`make e2e`, BENCHMARK.json).",
	)
	return e, nil
}
