package orchestrator

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"vconf/internal/assign"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/shard"
	"vconf/internal/telemetry"
)

// reoptTask is one unit of shard-pool work: re-optimize one session's
// variables by a bounded Markov refinement walk. tally attributes the
// task's outcome to its event, so per-event reports stay exact while
// events overlap.
type reoptTask struct {
	session model.SessionID
	seed    int64
	wg      *sync.WaitGroup
	tally   *eventTally
	// parent is the causal span of the event (or heal) that scheduled this
	// task; the finished task's attribution spans nest under it (zero when
	// telemetry is off).
	parent telemetry.Span
}

// eventTally accumulates one event's task outcomes; its fields are guarded
// by o.mu alongside the global stats counters. Every event and heal
// attaches one, and EventReport's outcome counts come from it on every
// path. chosenAgent must be initialized to -1.
type eventTally struct {
	commits, rejects, noChange, conflicts int
	// Per-task telemetry, merged at task finish (telemetry enabled only;
	// zero, and chosenAgent -1, when the sink is nil):
	// phase durations, delay-cache outcome deltas, and the counterfactual-k
	// reading of the event's first committed proposal.
	snapshotNs, walkNs, commitNs int64
	cacheWarm, cacheCold         int
	chosenAgent                  int
	cfGap                        float64
	cfValid                      bool
	// delayMS is the trigger session's post-decision mean-of-max delay
	// (admitted arrivals only; read at the end of reoptStage).
	delayMS float64
}

// bumpTask increments a global outcome counter and the matching per-event
// tally slot, under the state lock.
func (o *Orchestrator) bumpTask(global, local *int) {
	o.mu.Lock()
	*global++
	*local++
	o.mu.Unlock()
}

// telOutcome mirrors one task outcome into the telemetry sink's
// per-(class,region) sharded counters (no-op when telemetry is off).
func (o *Orchestrator) telOutcome(worker int, s model.SessionID, oc telemetry.TaskOutcome) {
	if o.tel == nil {
		return
	}
	o.tel.TaskOutcome(worker, o.tel.RegionOf(int(s)), o.tel.ClassOf(int(s)), oc)
}

// telConflict mirrors one lost commit race into the telemetry sink.
func (o *Orchestrator) telConflict(worker int, s model.SessionID) {
	if o.tel == nil {
		return
	}
	o.tel.TaskConflict(worker, o.tel.RegionOf(int(s)), o.tel.ClassOf(int(s)))
}

// taskSeed derives a deterministic per-task RNG seed, so a task's walk
// depends only on (config seed, session, event index) — never on which
// worker goroutine happens to pick it up.
func taskSeed(seed int64, s model.SessionID, eventIdx int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(s)*0xbf58476d1ce4e5b9 + uint64(eventIdx)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	return int64(z >> 1)
}

// workerState is one worker's private buffers: the hop scratch, a dense
// snapshot ledger with its epoch stamps and commit route, a private
// assignment the refinement walk mutates, and the proposal
// buffers. Everything is reused across tasks, so steady-state refinement
// allocates nothing beyond the per-task RNG.
type workerState struct {
	id  int // counter-shard index into the telemetry sink
	scr *core.HopScratch
	// probe is the reused per-task instrumentation scratch (telemetry
	// enabled only), so enabling the sink adds no per-task allocation.
	probe     taskProbe
	snap      *cost.Ledger
	epochs    shard.Epochs
	route     shard.Route
	snapRoute shard.Route
	agents    []model.AgentID
	aw        *assign.Assignment
	cur       *cost.SparseLoad
	userTo    []model.AgentID
	flowTo    []model.AgentID
	ds        []assign.Decision
}

// taskProbe carries one task's in-flight instrumentation: the task's start
// time (anchoring its span), phase durations, and the delay-cache counter
// baseline captured at task start (the cache counters are cumulative per
// scratch, so the task's contribution is the difference).
type taskProbe struct {
	start                               time.Time
	snapshotNs, walkNs, commitNs        int64
	commitStart                         time.Time
	baseHits, basePatches, baseRebuilds int64
}

// flushCommit closes an open commit-phase interval.
func (p *taskProbe) flushCommit() {
	if !p.commitStart.IsZero() {
		p.commitNs += time.Since(p.commitStart).Nanoseconds()
		p.commitStart = time.Time{}
	}
}

// beginTaskProbe resets the worker's probe and captures the delay-cache
// baseline. Caller must have checked o.tel != nil.
func (o *Orchestrator) beginTaskProbe(w *workerState) *taskProbe {
	w.probe = taskProbe{start: time.Now()}
	if dc := w.scr.Eval().DelayCacheStats(); dc != nil {
		w.probe.baseHits = int64(dc.Hits())
		w.probe.basePatches = int64(dc.Patches())
		w.probe.baseRebuilds = int64(dc.Rebuilds())
	}
	return &w.probe
}

// finishTaskProbe publishes one task's probe: phase counters and cache
// deltas to the sink (worker-sharded, lock-free), the probe's timers
// promoted into a task span with snapshot/walk/commit attribution children
// on the worker's trace lane, and the same readings into the event's tally
// under o.mu.
func (o *Orchestrator) finishTaskProbe(t reoptTask, w *workerState, probe *taskProbe) {
	probe.flushCommit()
	var hits, patches, rebuilds int64
	if dc := w.scr.Eval().DelayCacheStats(); dc != nil {
		hits = int64(dc.Hits()) - probe.baseHits
		patches = int64(dc.Patches()) - probe.basePatches
		rebuilds = int64(dc.Rebuilds()) - probe.baseRebuilds
	}
	o.tel.TaskPhases(w.id, probe.snapshotNs, probe.walkNs, probe.commitNs)
	o.tel.CacheEvals(w.id, hits, patches, rebuilds)
	// Promote the finished timers into spans: the task span covers the full
	// wall interval on the worker's lane (workers run tasks serially, so
	// lanes never self-overlap); the phase children are laid contiguously
	// from the start — attribution, not a literal timeline, since retries
	// interleave the phases (their sum never exceeds the task wall time).
	lane := taskLaneBase + int32(w.id)
	task := o.tel.EmitSpan("task", "task", t.parent, lane, probe.start, time.Since(probe.start).Nanoseconds(), int64(t.session))
	at := probe.start
	for _, ph := range [...]struct {
		name string
		ns   int64
	}{{"snapshot", probe.snapshotNs}, {"walk", probe.walkNs}, {"commit", probe.commitNs}} {
		if ph.ns <= 0 {
			continue
		}
		o.tel.EmitSpan(ph.name, "task", task, lane, at, ph.ns, int64(t.session))
		at = at.Add(time.Duration(ph.ns))
	}
	o.mu.Lock()
	t.tally.snapshotNs += probe.snapshotNs
	t.tally.walkNs += probe.walkNs
	t.tally.commitNs += probe.commitNs
	t.tally.cacheWarm += int(hits + patches)
	t.tally.cacheCold += int(rebuilds)
	o.mu.Unlock()
}

// worker is one solver shard: it refines tasks until the pool closes. id is
// the worker's counter-shard index in the telemetry sink.
func (o *Orchestrator) worker(id int) {
	// The worker's scratch carries a private per-session delay cache that
	// stays warm across the hops of one refinement walk (and across tasks,
	// when the session's variables did not change in between). Entries
	// self-validate against the session's decision variables, so commits by
	// sibling workers and event admissions (arrivals/departures) — all of
	// which rewrite those variables — are picked up as signature mismatches
	// on the next evaluation; stale state is never reused (see
	// cost.DelayCache's staleness contract).
	w := &workerState{
		id:     id,
		scr:    core.NewHopScratch(o.ev),
		snap:   cost.NewLedger(o.sc),
		epochs: make(shard.Epochs, 0, o.shl.NumShards()),
		aw:     assign.New(o.sc),
		cur:    cost.NewSparseLoad(o.sc.NumAgents()),
	}
	for t := range o.tasks {
		o.refine(t, w)
		t.wg.Done()
	}
}

// ---------------------------------------------------------------------------
// Sharded commit pipeline

// refineSharded runs one re-optimization task against the lock-striped
// ledger: snapshot the capacity state shard by shard (epoch-stamped), walk
// the Markov refinement on worker-private state, and commit the best-seen
// proposal through shard.Ledger.CommitDelta — locking only the shards the
// proposal touches, so commits with disjoint routes proceed fully in
// parallel. A bounded retry loop re-snapshots and re-walks when a commit
// loses a cross-shard race (shard.Conflict).
//
// No lock guards the live assignment accesses here: the event's re-opt
// stage guarantees this task is the sole owner of its session's variables
// (see reoptStage), and o.mu is taken only for the brief stats/cache/index/
// runtime update after a successful capacity commit.
func (o *Orchestrator) refineSharded(t reoptTask, w *workerState) {
	if !o.cache.Active(t.session) {
		return
	}
	rng := rand.New(rand.NewSource(t.seed))
	users := o.sc.Session(t.session).Users
	flows := o.a.SessionFlowsShared(t.session)
	w.userTo = growAgents(w.userTo, len(users))
	w.flowTo = growAgents(w.flowTo, len(flows))

	// Instrumentation (telemetry enabled only): the probe times the
	// snapshot/walk/commit phases and diffs the delay-cache counters;
	// bestAgent/bestGap remember the decisive hop's target and its
	// counterfactual-k gap (Φ runner-up − Φ chosen), read off the hop
	// result the loop already computes.
	var probe *taskProbe
	var t0 time.Time
	bestAgent, bestGap := -1, math.Inf(1)
	if o.tel != nil {
		probe = o.beginTaskProbe(w)
		defer o.finishTaskProbe(t, w, probe)
	}

	for attempt := 0; ; attempt++ {
		if probe != nil {
			probe.flushCommit()
			t0 = time.Now()
		}
		// Epoch-stamped capacity snapshot plus a private copy of the
		// session's decision variables: everything the walk reads. With a
		// candidate window configured, the walk can only read the session's
		// current agents plus the members' window agents, so only the
		// shards covering that set are copied — O(session·window) instead
		// of O(fleet) per task.
		if o.nbrIdx != nil {
			w.agents = w.agents[:0]
			for _, u := range users {
				if l := o.a.UserAgent(u); l >= 0 {
					w.agents = append(w.agents, l)
				}
				w.agents = append(w.agents, o.nbrIdx.UserWindow(u)...)
			}
			for _, f := range flows {
				if l, _ := o.a.FlowAgent(f); l >= 0 {
					w.agents = append(w.agents, l)
				}
			}
			o.shl.ResetRoute(&w.snapRoute)
			o.shl.RouteAgents(&w.snapRoute, w.agents)
			w.epochs = o.shl.SnapshotRoute(w.snap, w.epochs, &w.snapRoute)
		} else {
			w.epochs = o.shl.SnapshotInto(w.snap, w.epochs[:0])
		}
		for _, u := range users {
			w.aw.SetUserAgent(u, o.a.UserAgent(u))
		}
		for _, f := range flows {
			l, _ := o.a.FlowAgent(f)
			if err := w.aw.SetFlowAgent(f, l); err != nil {
				o.reportErr(err)
				return
			}
		}

		if probe != nil {
			now := time.Now()
			probe.snapshotNs += now.Sub(t0).Nanoseconds()
			t0 = now
		}
		es := w.scr.Eval()
		startPhi := o.ev.BeginSession(w.aw, t.session, es).Phi
		w.cur.CopyFrom(es.CurLoad())

		// Bounded refinement from the warm start, remembering the best
		// session-local objective seen: the chain may pass through worse
		// states (that is what lets it escape local minima).
		bestPhi := startPhi
		improved := false
		for i, u := range users {
			w.userTo[i] = w.aw.UserAgent(u)
		}
		for i, f := range flows {
			w.flowTo[i], _ = w.aw.FlowAgent(f)
		}
		for i := 0; i < o.cfg.HopBudget; i++ {
			res, err := core.HopSessionWith(w.aw, t.session, o.ev, w.snap, o.cfg.Core, rng, w.scr)
			if err != nil {
				o.reportErr(err)
				return
			}
			if !res.Moved {
				break // no feasible neighbor: the walk is stuck
			}
			if res.PhiAfter < bestPhi-o.cfg.ImprovementEps {
				bestPhi = res.PhiAfter
				for i, u := range users {
					w.userTo[i] = w.aw.UserAgent(u)
				}
				for i, f := range flows {
					w.flowTo[i], _ = w.aw.FlowAgent(f)
				}
				improved = true
				if probe != nil {
					bestAgent = int(res.Decision.To)
					bestGap = res.PhiSecond - res.PhiAfter
				}
			}
		}
		if probe != nil {
			now := time.Now()
			probe.walkNs += now.Sub(t0).Nanoseconds()
			probe.commitStart = now
		}
		if !improved {
			o.bumpTask(&o.stats.NoChange, &t.tally.noChange)
			o.telOutcome(w.id, t.session, telemetry.OutcomeNoChange)
			return
		}

		// Rewind the private assignment to the best-seen state and derive
		// the net decisions against the live state.
		for i, u := range users {
			w.aw.SetUserAgent(u, w.userTo[i])
		}
		for i, f := range flows {
			if err := w.aw.SetFlowAgent(f, w.flowTo[i]); err != nil {
				o.reportErr(err)
				return
			}
		}
		w.ds = w.ds[:0]
		for i, u := range users {
			if o.a.UserAgent(u) != w.userTo[i] {
				w.ds = append(w.ds, assign.Decision{Kind: assign.UserMove, User: u, To: w.userTo[i]})
			}
		}
		for i, f := range flows {
			if cur, _ := o.a.FlowAgent(f); cur != w.flowTo[i] {
				w.ds = append(w.ds, assign.Decision{Kind: assign.FlowMove, Flow: f, To: w.flowTo[i]})
			}
		}
		if len(w.ds) == 0 {
			o.bumpTask(&o.stats.NoChange, &t.tally.noChange)
			o.telOutcome(w.id, t.session, telemetry.OutcomeNoChange)
			return
		}

		// Re-evaluate the proposed state through the sparse pipeline and
		// re-check improvement and the delay cap before the capacity commit.
		newEval := o.ev.BeginSession(w.aw, t.session, es)
		newLoad := es.CurLoad()
		if newEval.Phi >= startPhi-o.cfg.ImprovementEps {
			o.bumpTask(&o.stats.NoChange, &t.tally.noChange)
			o.telOutcome(w.id, t.session, telemetry.OutcomeNoChange)
			return
		}
		if !newEval.DelayFeasible(o.sc.DMaxMS) {
			o.bumpTask(&o.stats.Rejects, &t.tally.rejects)
			o.telOutcome(w.id, t.session, telemetry.OutcomeReject)
			return
		}

		// Capacity is the only state other sessions contend on: route,
		// lock, re-validate and apply atomically in the shard pipeline.
		switch o.shl.CommitDelta(newLoad, w.cur, w.epochs, &w.route) {
		case shard.Committed:
			for _, d := range w.ds {
				if _, err := o.a.Apply(d); err != nil {
					o.reportErr(err)
					return
				}
			}
			// Keep the committed-agents index and the objective cache
			// current from the committing worker's own evaluation, so no
			// later admission or retire ever recomputes this session from
			// the shared assignment while another event may own it. The
			// agent extraction runs on worker-private state before taking mu.
			idxAgents := newLoad.AppendAgents(nil)
			o.mu.Lock()
			o.cache.Prime(t.session, newEval.Phi, newLoad)
			o.touchIdx[t.session] = idxAgents
			o.stats.Commits++
			t.tally.commits++
			// Counterfactual-k: keep the event's first committed proposal's
			// decisive hop (probe != nil paths only; the tally fields stay
			// zeroed otherwise).
			if t.tally.chosenAgent < 0 && bestAgent >= 0 {
				t.tally.chosenAgent = bestAgent
				if !math.IsInf(bestGap, 1) {
					t.tally.cfGap = bestGap
					t.tally.cfValid = true
				}
			}
			if o.rt != nil {
				for _, d := range w.ds {
					if err := o.rt.Migrate(o.now, d); err != nil {
						o.refErr = err
						o.mu.Unlock()
						return
					}
				}
				o.stats.Migrations += len(w.ds)
			}
			o.mu.Unlock()
			o.telOutcome(w.id, t.session, telemetry.OutcomeCommit)
			return
		case shard.Conflict:
			// A sibling commit changed a routed shard after our snapshot:
			// the walk ran on stale residual capacities. Retry bounded.
			o.bumpTask(&o.stats.Conflicts, &t.tally.conflicts)
			o.telConflict(w.id, t.session)
			if attempt < commitRetries {
				continue
			}
			o.bumpTask(&o.stats.Rejects, &t.tally.rejects)
			o.telOutcome(w.id, t.session, telemetry.OutcomeReject)
			return
		default: // shard.Infeasible
			o.bumpTask(&o.stats.Rejects, &t.tally.rejects)
			o.telOutcome(w.id, t.session, telemetry.OutcomeReject)
			return
		}
	}
}

// growAgents resizes a reused agent-ID buffer to n entries.
func growAgents(buf []model.AgentID, n int) []model.AgentID {
	if cap(buf) < n {
		return make([]model.AgentID, n)
	}
	return buf[:n]
}

func (o *Orchestrator) reportErr(err error) {
	o.mu.Lock()
	if o.refErr == nil {
		o.refErr = err
	}
	o.mu.Unlock()
}
