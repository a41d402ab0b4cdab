package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/services"
	"repro/internal/simnet"
	"repro/internal/ws"
)

// Recovery measures the elastic-cluster extension (DESIGN.md §5h), which the
// paper leaves as future work: Q1 over three evaluators with one of them
// crash-stopped mid-query, and Q1 over two evaluators with a third joining
// mid-query. There are no paper values — the rows report the cost of fault
// tolerance when nothing fails, the response-time ratio when an evaluator
// does fail, the detection-to-resume recovery latency in paper milliseconds,
// and the tuple share a mid-query joiner picks up. The faulted run's result
// set is compared tuple for tuple against the unfaulted run's.
func Recovery() (*Experiment, error) {
	e := &Experiment{
		ID:    "Recovery",
		Title: "Q1 with evaluator failure and live join (elastic cluster, beyond the paper)",
	}
	r := newRunner()
	base3, err := r.baseline(Config{Query: Q1, WSNodes: 3}.withDefaults())
	if err != nil {
		return nil, err
	}

	// The cost of fault tolerance when no fault happens: checkpoint-commit
	// acknowledgements and serial drivers, measured against the static run.
	unfaulted, err := runBest(Config{Query: Q1, WSNodes: 3, Adaptive: true, Elastic: true}, 2)
	if err != nil {
		return nil, err
	}
	e.Rows = append(e.Rows, Measurement{
		Label: "elastic on, no failure (FT overhead)", Paper: math.NaN(),
		Measured: unfaulted.ResponseMs / base3,
	})

	// Kill one of three evaluators mid-query. The kill point is tied to the
	// victim's own monitoring stream (its 30th raw event, roughly a third of
	// the way through its share), so it is deterministic in query progress;
	// a kill can still lose the race against completion on a loaded host, so
	// the scenario retries until a failover actually ran.
	victim := WSNodeID(1)
	var killed *Result
	var detectMs, replayMs, resumeMs float64
	for attempt := 0; attempt < 5 && killed == nil; attempt++ {
		startSeq := timelineStart()
		var inj *chaos.Injector
		res, err := Run(Config{Query: Q1, WSNodes: 3, Adaptive: true, Elastic: true,
			OnCluster: func(c *services.Cluster) {
				inj = chaos.New(c)
				inj.KillAfterEvents(victim, victim, 30)
			}})
		if inj != nil {
			inj.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("exp: recovery kill run: %w", err)
		}
		if res.Stats.Failovers >= 1 {
			killed = res
			detectMs, replayMs, resumeMs = recoveryLatencies(startSeq, victim)
		}
	}
	if killed == nil {
		return nil, fmt.Errorf("exp: evaluator kill never landed mid-query in 5 attempts")
	}
	e.Rows = append(e.Rows,
		Measurement{Label: "elastic on, 1 of 3 evaluators killed mid-query", Paper: math.NaN(),
			Measured: killed.ResponseMs / base3},
		Measurement{Label: "failure detection latency (paper-ms)", Paper: math.NaN(), Measured: detectMs},
		Measurement{Label: "failover: reweight + replay onto survivors (paper-ms)", Paper: math.NaN(), Measured: replayMs},
		Measurement{Label: "crash to resumed routing (paper-ms)", Paper: math.NaN(), Measured: resumeMs},
		Measurement{Label: "result rows diverging from unfaulted run", Paper: math.NaN(),
			Measured: float64(divergingRows(killed.Rows, unfaulted.Rows))},
	)

	// Start with two evaluators and register a third mid-query: the session
	// must admit it with a nonzero weight share without restarting.
	base2, err := r.baseline(Config{Query: Q1, WSNodes: 2}.withDefaults())
	if err != nil {
		return nil, err
	}
	cal := DefaultCalibration()
	var joined *Result
	for attempt := 0; attempt < 5 && joined == nil; attempt++ {
		var timer *time.Timer
		res, err := Run(Config{Query: Q1, WSNodes: 2, Adaptive: true, Elastic: true,
			OnCluster: func(c *services.Cluster) {
				timer = time.AfterFunc(100*time.Millisecond, func() {
					_ = c.AddComputeNode(WSNodeID(2), 1.0,
						ws.NewRegistry(ws.Entropy{CostMs: cal.EntropyCostMs}, ws.SequenceLength{}))
				})
			}})
		if timer != nil {
			timer.Stop()
		}
		if err != nil {
			return nil, fmt.Errorf("exp: recovery join run: %w", err)
		}
		if res.Stats.NodesJoined >= 1 {
			joined = res
		}
	}
	if joined == nil {
		return nil, fmt.Errorf("exp: mid-query join never landed in 5 attempts")
	}
	e.Rows = append(e.Rows,
		Measurement{Label: "evaluator joining mid-query (2→3), vs 2-node baseline", Paper: math.NaN(),
			Measured: joined.ResponseMs / base2},
		Measurement{Label: "joined evaluator's share of tuples (%)", Paper: math.NaN(),
			Measured: joinerShare(joined)},
	)
	e.Notes = append(e.Notes,
		"The paper cites machine failure and changing machine sets as future work (§4); there are no paper "+
			"values, so every row is measured-only.",
		"Detection latency spans the authoritative membership 'leave' publication to the session's failure "+
			"pipeline starting; the in-process bus delivers it almost immediately, and the active heartbeat "+
			"(two missed 25 ms probes, 50 ms real time) bounds detection when that signal is "+
			"lost (e.g. a network partition).",
		"'Crash to resumed routing' additionally covers interrupting the dead machine's drivers, zeroing its "+
			"weights, and replaying its unacknowledged partitions from the producers' recovery logs onto "+
			"survivors — after which routing resumes and the result is still exact (0 diverging rows).",
	)
	return e, nil
}

// timelineStart returns the sequence number the next appended observability
// event will receive, so a run's events can be filtered out afterwards.
func timelineStart() int64 {
	evs := obs.Default().Timeline().Events()
	if len(evs) == 0 {
		return 0
	}
	return evs[len(evs)-1].Seq + 1
}

// recoveryLatencies reads one run's failure events (from startSeq on) off the
// observability timeline: the membership 'leave' to failure-'detected' gap,
// the failover duration recorded on the final 'recovered' event, and the full
// 'leave'-to-'recovered' span. All in paper milliseconds; NaN when an event
// is missing.
func recoveryLatencies(startSeq int64, victim simnet.NodeID) (detect, replay, resume float64) {
	leaveAt, detectAt, recoverAt := math.NaN(), math.NaN(), math.NaN()
	replay = math.NaN()
	for _, ev := range obs.Default().Timeline().Events() {
		if ev.Seq < startSeq || ev.Node != string(victim) {
			continue
		}
		switch {
		case ev.Kind == obs.KindMembership && ev.Detail == "leave":
			if math.IsNaN(leaveAt) {
				leaveAt = ev.AtMs
			}
		case ev.Kind == obs.KindFailure && ev.Outcome == "detected":
			if math.IsNaN(detectAt) {
				detectAt = ev.AtMs
			}
		case ev.Kind == obs.KindFailure && ev.Outcome == "recovered":
			if math.IsNaN(recoverAt) || ev.AtMs > recoverAt {
				recoverAt = ev.AtMs
				replay = ev.DurationMs
			}
		}
	}
	return detectAt - leaveAt, replay, recoverAt - leaveAt
}

// divergingRows compares two result sets order-insensitively (row order
// across instances is nondeterministic by design) and counts rows present in
// one but not the other.
func divergingRows(got, want []relation.Tuple) int {
	a, b := renderSorted(got), renderSorted(want)
	diverging := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			diverging++
			i++
		default:
			diverging++
			j++
		}
	}
	return diverging + (len(a) - i) + (len(b) - j)
}

// renderSorted canonicalises a result set for comparison.
func renderSorted(rows []relation.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for j, v := range r {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.Format())
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// joinerShare reports the percentage of the partitioned fragment's tuples
// evaluated by the admitted instance (#2).
func joinerShare(res *Result) float64 {
	var newcomer, total int64
	for _, frag := range res.Stats.Plan.Fragments {
		if !frag.Partitioned {
			continue
		}
		for id, n := range res.Stats.ConsumedByInstance {
			if !strings.HasPrefix(id, frag.ID+"#") {
				continue
			}
			total += n
			if strings.HasSuffix(id, "#2") {
				newcomer += n
			}
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return 100 * float64(newcomer) / float64(total)
}
