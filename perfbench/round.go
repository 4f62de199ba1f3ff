package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"vconf/internal/orchestrator"
	"vconf/internal/sim"
	"vconf/internal/workload"
)

// gate checks that every pulled event retires exactly once and in pull
// order, and times each event from hand-over to report.
type gate struct {
	pending []pulledEvent // FIFO of pulled, not yet retired events
	pulled  int
	retired int
}

type pulledEvent struct {
	ev workload.Event
	at time.Time
}

func (g *gate) pull(e workload.Event, at time.Time) {
	g.pending = append(g.pending, pulledEvent{ev: e, at: at})
	g.pulled++
}

// retire matches a report against the oldest pulled event and returns the
// event's latency.
func (g *gate) retire(rep orchestrator.EventReport, at time.Time) (time.Duration, error) {
	if len(g.pending) == 0 {
		return 0, fmt.Errorf("gate: report for %v at t=%v with no pulled event in flight", rep.Event.Kind, rep.Event.TimeS)
	}
	head := g.pending[0]
	if rep.Event != head.ev {
		return 0, fmt.Errorf("gate: event %d retired out of order: got %v at t=%v, want %v at t=%v",
			g.retired, rep.Event.Kind, rep.Event.TimeS, head.ev.Kind, head.ev.TimeS)
	}
	g.pending = g.pending[1:]
	g.retired++
	return at.Sub(head.at), nil
}

// finish reports events pulled but never retired.
func (g *gate) finish() error {
	if len(g.pending) > 0 || g.pulled != g.retired {
		return fmt.Errorf("gate: %d events pulled, %d retired", g.pulled, g.retired)
	}
	return nil
}

// gatedSource wraps the fixture's event source: it registers every pulled
// event with the gate and, when traced, records the source.next span.
type gatedSource struct {
	inner orchestrator.EventSource
	g     *gate
	tr    *tracer
}

func (s *gatedSource) Next() (workload.Event, bool) {
	var start time.Time
	if s.tr != nil {
		start = time.Now()
	}
	e, ok := s.inner.Next()
	now := time.Now()
	if ok {
		s.g.pull(e, now)
		if s.tr != nil {
			s.tr.pulled(start, now)
		}
	}
	return e, ok
}

func (s *gatedSource) Err() error { return s.inner.Err() }

// quality accumulates the decision quality of rounds as sums, so rounds
// add up; for one seed it repeats bit-exactly.
type quality struct {
	// phiSum sums Objective/ActiveSessions over phiN reports.
	phiSum float64
	phiN   int
	// delaySum and trafficSum sum, over samples, the mean over live
	// sessions of MeanDelayMS and InterTraffic. A sample is taken every
	// sampleEvery retired events, outside the timing.
	delaySum, trafficSum float64
	samples              int
	// unserved counts Dropped + EvacRejects out of placements, which
	// counts Arrivals + Orphans.
	unserved, placements int
}

func (q *quality) add(o quality) {
	q.phiSum += o.phiSum
	q.phiN += o.phiN
	q.delaySum += o.delaySum
	q.trafficSum += o.trafficSum
	q.samples += o.samples
	q.unserved += o.unserved
	q.placements += o.placements
}

// sampleEvery is the event interval of the delay and traffic samples.
const sampleEvery = 20

// roundKind selects what a round records besides the gated replay.
type roundKind int

const (
	// timedRound records only what the end-to-end metrics need.
	timedRound roundKind = iota
	// tracedRound also records spans, wraps the bootstrapper and attaches
	// a telemetry sink.
	tracedRound
)

// round is the outcome of one set-up plus one RunSource replay.
type round struct {
	setup      time.Duration
	wall       time.Duration
	events     int
	lat        []time.Duration
	evs        []workload.Event
	allocBytes uint64
	digests    []sim.Digest
	quality    quality
	stats      orchestrator.Stats
	recomputes int
	// timings and shares hold the per-layer metrics of a traced round.
	timings map[string]float64
	shares  map[string]share
	tr      *tracer
}

// runRound builds fleet fleetSeed with schedule seed, replays it through
// RunSource in a closed loop, and applies the correctness gate. sabotage,
// when non-nil, may drop a report before the gate sees it (tests only).
func runRound(sp spec, fleetSeed, seed int64, horizonS float64, kind roundKind, sabotage func(int) bool) (*round, error) {
	var tr *tracer
	traced := kind == tracedRound
	h := hooks{traced: traced}
	if traced {
		tr = newTracer()
		h.wrapBoot = tr.wrapBoot
	}
	setupStart := time.Now()
	f, err := sp.build(fleetSeed, seed, horizonS, h)
	if err != nil {
		return nil, err
	}
	r := &round{setup: time.Since(setupStart), tr: tr}
	defer f.orc.Close()

	g := &gate{}
	src := &gatedSource{inner: f.src, g: g, tr: tr}
	// sample adds the mean delay and traffic over the live sessions to the
	// round's quality. Its time and allocations are kept out of the
	// round's figures.
	var sampleWall time.Duration
	var sampleAlloc uint64
	sample := func() {
		start, alloc := time.Now(), heapAllocs()
		a := f.orc.Assignment()
		if live := f.orc.ActiveSessions(); len(live) > 0 {
			var delay, traffic float64
			for _, s := range live {
				sr := f.ev.ReportSession(a, s)
				delay += sr.MeanDelayMS
				traffic += sr.InterTraffic
			}
			r.quality.delaySum += delay / float64(len(live))
			r.quality.trafficSum += traffic / float64(len(live))
			r.quality.samples++
		}
		sampleWall += time.Since(start)
		sampleAlloc += heapAllocs() - alloc
	}
	onReport := func(rep orchestrator.EventReport) error {
		now := time.Now()
		if sabotage != nil && sabotage(g.retired) {
			sabotage = nil
			return nil
		}
		lat, err := g.retire(rep, now)
		if err != nil {
			return err
		}
		r.lat = append(r.lat, lat)
		r.evs = append(r.evs, rep.Event)
		r.digests = append(r.digests, sim.Digest{Phi: rep.Objective, Active: rep.ActiveSessions, Commits: rep.Commits})
		if rep.ActiveSessions > 0 {
			r.quality.phiSum += rep.Objective / float64(rep.ActiveSessions)
			r.quality.phiN++
		}
		if tr != nil {
			tr.retired(rep, now)
		}
		if g.retired%sampleEvery == 0 {
			sample()
		}
		return nil
	}

	// Start every replay on a collected heap, so no round pays for the
	// garbage of the set-up or of the round before.
	runtime.GC()
	allocs := heapAllocs()
	start := time.Now()
	err = f.orc.RunSource(src, f.horizonS, onReport)
	r.wall = time.Since(start) - sampleWall
	r.allocBytes = heapAllocs() - allocs - sampleAlloc
	// Gate failures still return the round, so its events are counted.
	r.events = g.pulled
	if err != nil {
		return r, err
	}
	if err := g.finish(); err != nil {
		return r, err
	}
	if err := f.orc.CheckInvariants(); err != nil {
		return r, err
	}
	r.stats = f.orc.Stats()
	r.recomputes = f.orc.Recomputes()
	if r.stats.Events != r.events {
		return r, fmt.Errorf("gate: orchestrator counted %d events, %d retired", r.stats.Events, r.events)
	}
	st := r.stats
	r.quality.unserved = st.Dropped + st.EvacRejects
	r.quality.placements = st.Arrivals + st.Orphans
	if traced {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.timings, r.shares = tr.layers(r, f, ms.GCCPUFraction)
	}
	return r, nil
}

// heapAllocs returns the bytes allocated on the heap since the process
// started (MemStats.TotalAlloc, read without stopping the world).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// compareDigests returns an error naming the first event whose decision
// digest differs between two rounds of one seed.
func compareDigests(want, got []sim.Digest) error {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			return fmt.Errorf("gate: decision digest diverges at event %d: Φ %v/%v active %d/%d commits %d/%d",
				i, want[i].Phi, got[i].Phi, want[i].Active, got[i].Active, want[i].Commits, got[i].Commits)
		}
	}
	if len(want) != len(got) {
		return fmt.Errorf("gate: decision digest length %d, want %d", len(got), len(want))
	}
	return nil
}
