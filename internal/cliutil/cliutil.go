// Package cliutil holds the flag plumbing shared by the multi-process
// commands (dqp-coordinator, dqp-evaluator): every process of a deployment
// parses the same manifest flags and must end up with an identical
// services.Manifest, because a deploy request carries only the query text
// and every process derives the same plan from it (see package services).
package cliutil

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/services"
	"repro/internal/simnet"
)

// ManifestFlags collects the deployment-describing flags.
type ManifestFlags struct {
	Coordinator  *string
	Data         *string
	Compute      *string
	Peers        *string
	Sequences    *int
	Interactions *int
	Scale        *time.Duration
	Adaptive     *bool
	Retro        *bool
	A2           *bool
	EntropyCost  *float64
	Parallel     *int
}

// NewManifestFlags registers the shared flags on the default flag set.
func NewManifestFlags() *ManifestFlags {
	return &ManifestFlags{
		Coordinator:  flag.String("coordinator", "coord", "coordinator node name"),
		Data:         flag.String("data", "data1", "comma-separated data node names"),
		Compute:      flag.String("compute", "ws0,ws1", "comma-separated compute node names (node[:speed])"),
		Peers:        flag.String("peers", "", "comma-separated node=host:port address list for every node"),
		Sequences:    flag.Int("sequences", 3000, "protein_sequences cardinality"),
		Interactions: flag.Int("interactions", 4700, "protein_interactions cardinality"),
		Scale:        flag.Duration("scale", 10*time.Microsecond, "real duration of one paper millisecond"),
		Adaptive:     flag.Bool("adaptive", false, "enable the AQP components"),
		Retro:        flag.Bool("retrospective", false, "use R1 response instead of R2"),
		A2:           flag.Bool("a2", false, "use A2 assessment instead of A1"),
		EntropyCost:  flag.Float64("entropy-cost", 10, "EntropyAnalyser cost in paper-ms per call"),
		Parallel:     flag.Int("parallel", 0, "morsel worker-pool width per fragment driver (0/1 serial, negative = GOMAXPROCS)"),
	}
}

// Build assembles the manifest and peer address map.
func (f *ManifestFlags) Build() (services.Manifest, map[string]string, error) {
	m := services.Manifest{
		Scale:       *f.Scale,
		Coordinator: simnet.NodeID(*f.Coordinator),
		Adaptive:    *f.Adaptive,
		Parallelism: *f.Parallel,
	}
	if *f.Retro {
		m.Response = core.R1
	}
	if *f.A2 {
		m.Assessment = core.A2
	}
	for _, name := range splitList(*f.Data) {
		m.DataNodes = append(m.DataNodes, services.DataNodeSpec{
			Node:         simnet.NodeID(name),
			Sequences:    *f.Sequences,
			Interactions: *f.Interactions,
		})
	}
	for _, spec := range splitList(*f.Compute) {
		name, speed := spec, 1.0
		if i := strings.Index(spec, ":"); i >= 0 {
			name = spec[:i]
			v, err := strconv.ParseFloat(spec[i+1:], 64)
			if err != nil || v <= 0 {
				return m, nil, fmt.Errorf("cliutil: bad compute speed in %q", spec)
			}
			speed = v
		}
		m.Compute = append(m.Compute, services.ComputeNodeSpec{
			Node:          simnet.NodeID(name),
			Speed:         speed,
			EntropyCostMs: *f.EntropyCost,
		})
	}
	peers := make(map[string]string)
	for _, kv := range splitList(*f.Peers) {
		i := strings.Index(kv, "=")
		if i <= 0 {
			return m, nil, fmt.Errorf("cliutil: bad peer %q (want node=host:port)", kv)
		}
		peers[kv[:i]] = kv[i+1:]
	}
	return m, peers, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
