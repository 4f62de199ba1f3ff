package main

import (
	"encoding/json"
	"errors"
	"io"
	"sort"
	"sync"
	"time"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/orchestrator"
	"vconf/internal/workload"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one event share Event; Parent is 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Event   int    `json:"event"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Span names: the event (pull → report), the source's Next call, and each
// admission or re-home through the bootstrapper.
const (
	spanEvent = "event"
	spanNext  = "source.next"
	spanBoot  = "agrank.bootstrap"
)

// tracer keeps spans in memory for one traced round. The orchestrator may
// call the wrapped bootstrapper from its own goroutines, so access locks.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	// cur is the index in spans of the event span in flight (-1 if none).
	cur        int
	event      int
	calls      int
	infeasible int
}

func newTracer() *tracer { return &tracer{origin: time.Now(), cur: -1} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

func (t *tracer) add(name string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Event: t.event, Name: name, StartNs: t.ns(start), EndNs: t.ns(end)})
	return id
}

// pulled opens the event span at the start of the Next call that handed
// the event over, with the Next call as its first child.
func (t *tracer) pulled(start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.event++
	id := t.add(spanEvent, 0, start, start)
	t.cur = id - 1
	t.add(spanNext, id, start, end)
}

// retired closes the event span in flight.
func (t *tracer) retired(_ orchestrator.EventReport, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur >= 0 {
		t.spans[t.cur].EndNs = t.ns(at)
		t.cur = -1
	}
}

// wrapBoot times every bootstrap call, admissions and fault-driven
// re-homes alike, as a child of the event in flight.
func (t *tracer) wrapBoot(b core.Bootstrapper) core.Bootstrapper {
	return func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		start := time.Now()
		err := b(a, s, ledger)
		end := time.Now()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.calls++
		if errors.Is(err, agrank.ErrInfeasible) {
			t.infeasible++
		}
		parent := 0
		if t.cur >= 0 {
			parent = t.spans[t.cur].ID
		}
		t.add(spanBoot, parent, start, end)
		return err
	}
}

// selfTimes sums each span name's self time: its duration minus the time
// its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent-1] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - child[i])
	}
	return out
}

// writeSpans writes the spans as JSONL.
func (t *tracer) writeSpans(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// share is a counter-based per-layer metric of one round as num/den;
// layerMetrics pools num and den over the traced rounds, so that events
// as sparse as faults are not lost to a median. A count per round has
// den 1.
type share struct{ num, den float64 }

// layers derives the per-layer metrics of a traced round from the spans,
// the orchestrator's exported counters and the telemetry registry: the
// timings, which layerMetrics reduces to their median over rounds, and
// the counter-based shares, which it pools.
func (t *tracer) layers(r *round, f *fixture, gcFrac float64) (map[string]float64, map[string]share) {
	ev := float64(r.events)
	st := r.stats
	tasks := float64(st.Tasks)
	reg := registryCounters(f)
	walk, snap, commit := reg["phase=walk"], reg["phase=snapshot"], reg["phase=commit"]
	hits, patches, rebuilds := reg["result=hit"], reg["result=patch"], reg["result=rebuild"]

	var cold time.Duration
	for i := 0; i < f.shards && i < len(r.lat); i++ {
		cold += r.lat[i]
	}
	self := t.selfTimes()
	timings := map[string]float64{
		"sim.next_us_per_event":          ratio(float64(self[spanNext].Nanoseconds())/1e3, ev),
		"agrank.ms_per_call":             ratio(ms(self[spanBoot]), float64(t.calls)),
		"core.walk_ms_per_task":          ratio(walk/1e6, tasks),
		"core.busy_ratio":                ratio(walk, float64(r.wall.Nanoseconds())*float64(f.shards)),
		"shard.snapshot_us_per_task":     ratio(snap/1e3, tasks),
		"shard.commit_us_per_task":       ratio(commit/1e3, tasks),
		"faults.recover_p50_ms":          ms(st.RecoverP50),
		"assign.cold_start_ms":           ms(cold),
		"go.gc_cpu_fraction":             gcFrac,
		"self.orchestrator_ms_per_event": ratio(ms(self[spanEvent]), ev),
		"self.agrank_ms_per_event":       ratio(ms(self[spanBoot]), ev),
	}
	shares := map[string]share{
		"agrank.calls":                 {float64(t.calls), 1},
		"agrank.infeasible_ratio":      {float64(t.infeasible), float64(t.calls)},
		"orchestrator.tasks_per_event": {tasks, ev},
		"orchestrator.commit_ratio":    {float64(st.Commits), tasks},
		"cost.delay_cache_hit_ratio":   {hits, hits + patches + rebuilds},
		"cost.delay_cache_rebuilds":    {rebuilds, 1},
		"cost.recomputes_per_event":    {float64(r.recomputes), ev},
		"shard.conflict_ratio":         {float64(st.Conflicts), tasks},
		"faults.orphans":               {float64(st.Orphans), 1},
		"faults.evac_reject_ratio":     {float64(st.EvacRejects), float64(st.Orphans)},
		"confsim.migrations":           {0, 1},
		"confsim.frozen_frames":        {0, 1},
	}
	if f.rt != nil {
		rs := f.rt.Stats()
		shares["confsim.migrations"] = share{float64(rs.Migrations), 1}
		shares["confsim.frozen_frames"] = share{float64(rs.FrozenFrames), 1}
	}
	return timings, shares
}

// kindName names an event's kind for the per-kind latency percentiles.
func kindName(k workload.EventKind) string {
	switch k {
	case workload.EventArrival:
		return "arrive"
	case workload.EventDeparture:
		return "depart"
	}
	return "fault"
}

// registryCounters reads the task-phase and delay-cache counter families
// from the sink's registry, keyed by "label=value".
func registryCounters(f *fixture) map[string]float64 {
	out := map[string]float64{}
	for _, m := range f.sink.Registry().Snapshot() {
		if m.Name != "vconf_task_phase_ns_total" && m.Name != "vconf_delay_cache_evals_total" {
			continue
		}
		for k, v := range m.Labels {
			out[k+"="+v] += m.Value
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the nearest-rank q-quantile of ds (0 for none).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
