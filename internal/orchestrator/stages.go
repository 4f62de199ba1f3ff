package orchestrator

// This file is the one event path: every churn event runs the same three
// stages — admit → re-opt → retire — and every fault event runs the same
// re-opt and retire after its healing. Two drivers call them:
//
//   - the serial driver (Config.Pipeline off, and every fault) runs the
//     stages back to back on the caller's goroutine (runStages), so the
//     orchestrator is quiesced between events;
//   - the pipelined driver (pipeline.go) submits them to the
//     dependency-aware scheduler, which overlaps events whose conflict
//     footprints are disjoint and retires them in arrival order.
//
// The stages keep two pieces of derived state current at every bootstrap,
// commit and departure, under o.mu, on both drivers: the committed-agents
// index touchIdx (touched sets and footprints never read an in-flight
// session's assignment) and the objective cache (sharded commits Prime it
// from the committing worker's own evaluation, so retire-time objective
// sums never recompute an in-flight session). CheckInvariants checks the
// index against the live assignment.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// eventState carries one event across its stages. The serial driver reads
// rep when the stages return; the pipelined driver after the retire channel
// closes.
type eventState struct {
	o     *Orchestrator
	e     workload.Event
	seq   int
	rep   EventReport
	tally eventTally
	// stalled records whether this event's admission waited in the
	// scheduler (the OnAdmit hook), for the decision record.
	stalled bool
	// admitErr records this event's admission failure (written in the
	// dispatcher before the retire channel closes), so the pipelined
	// HandleEvent can tell "this event never happened" from errors surfaced
	// by other machinery.
	admitErr error
	// span traces the event from its start to retirement; task spans nest
	// under it (zero when telemetry is off).
	span telemetry.Span
	// emit, when non-nil, receives the finished report at retire. Retires
	// are serialized: on the caller's goroutine for the serial driver and
	// faults, on the scheduler's retire loop for pipelined events.
	emit func(EventReport)
}

// newEvent validates a churn event and starts its state: the event index
// that seeds its tasks, its tally and its span. A failed admission must
// release the index (o.eventIdx = st.seq) so task seeds stay aligned across
// streams containing recovered errors.
func (o *Orchestrator) newEvent(e workload.Event, emit func(EventReport)) (*eventState, error) {
	if e.Session < 0 || e.Session >= o.sc.NumSessions() {
		return nil, fmt.Errorf("orchestrator: event session %d outside [0, %d)", e.Session, o.sc.NumSessions())
	}
	if e.Kind != workload.EventArrival && e.Kind != workload.EventDeparture {
		return nil, fmt.Errorf("orchestrator: invalid event kind %d", e.Kind)
	}
	// In-flight pipelined events overlap, so each gets its own trace lane
	// (reused modulo pipelineLanes — far above any realistic MaxInFlight,
	// so live events never share one). The span opens at submission: queue
	// wait is part of the event's story.
	lane := int32(laneControl)
	if o.pipe != nil {
		lane = 1 + int32(o.eventIdx%pipelineLanes)
	}
	return o.startEvent(e, lane, emit), nil
}

// startEvent allocates the next event index and opens the event's span.
func (o *Orchestrator) startEvent(e workload.Event, lane int32, emit func(EventReport)) *eventState {
	st := &eventState{
		o:     o,
		e:     e,
		seq:   o.eventIdx,
		rep:   EventReport{Event: e, Admitted: true},
		tally: eventTally{chosenAgent: -1},
		emit:  emit,
	}
	o.eventIdx++
	st.span = o.tel.StartRoot(eventSpanName(e.Kind), "event", lane)
	return st
}

// runStages is the serial driver: admit, re-optimize and retire on the
// caller's goroutine.
func (st *eventState) runStages() error {
	o := st.o
	o.mu.Lock()
	err := st.admitLocked()
	o.mu.Unlock()
	if err != nil {
		o.eventIdx = st.seq
		return err
	}
	st.reoptStage()
	st.retire()
	return nil
}

// admitLocked is the admission stage: apply the arrival or departure
// against the authoritative state and select the re-optimization set from
// the committed-agents index. Caller holds o.mu. The trigger session is
// single-owner here (the serial driver is quiesced; the scheduler never
// admits an event whose trigger another in-flight event claims); every
// other access goes through the ledger, the index or o.mu.
func (st *eventState) admitLocked() error {
	o := st.o
	s := model.SessionID(st.e.Session)
	o.advanceClock(st.e.TimeS)
	if st.e.Kind == workload.EventArrival {
		o.stats.Arrivals++
		if o.cache.Active(s) {
			return fmt.Errorf("orchestrator: arrival for already-active session %d", s)
		}
		if err := o.boot(o.a, s, o.ledger); err != nil {
			// Admission infeasibility (the bootstrapper rolled the session
			// back) is an expected drop; anything else — misconfiguration, a
			// buggy custom bootstrapper — must surface loudly, not read as
			// churn.
			if errors.Is(err, agrank.ErrInfeasible) || errors.Is(err, baseline.ErrInfeasible) {
				o.stats.Dropped++
				if o.impaired > 0 {
					o.stats.DegradedRejects++
					o.tel.DegradedReject(o.tel.RegionOf(int(s)))
				}
				st.rep.Admitted = false
				return nil
			}
			return fmt.Errorf("orchestrator: bootstrap session %d: %w", s, err)
		}
		o.cache.SetActive(s, true)
		if o.rt != nil {
			if err := o.rt.ActivateSession(s, o.a); err != nil {
				return err
			}
		}
		// SessionLoad refreshes the cache entry here, while the admission
		// owns the session — leaving it clean for retire-time objective sums.
		load := o.cache.SessionLoad(o.a, s)
		o.touchIdx[s] = load.AppendAgents(nil)
		st.rep.Reopt = o.capReopt(s, o.touchedIndexed(s, o.agentsOf(load)))
		return nil
	}
	o.stats.Departures++
	if !o.cache.Active(s) {
		// A departure for a session that was never admitted — the echo of a
		// dropped arrival — is a benign skip.
		o.stats.Skipped++
		st.rep.Admitted = false
		return nil
	}
	load := o.cache.SessionLoad(o.a, s)
	agents := o.agentsOf(load)
	o.ledger.RemoveSparse(load)
	for _, u := range o.sc.Session(s).Users {
		o.a.SetUserAgent(u, assign.Unassigned)
	}
	for _, f := range o.a.SessionFlows(s) {
		if err := o.a.SetFlowAgent(f, assign.Unassigned); err != nil {
			return err
		}
	}
	// Departure invalidation: SetActive drops the objective cache's delay
	// entry and the commit scratch drops its own — a re-arrival rebuilds
	// cold instead of patching a fully-torn-down matrix. Because the
	// departed session also leaves touchIdx (and so every future footprint
	// and touched set), no in-flight evaluation can leak its stale variables
	// into a warm cache; worker entries re-validate by signature the next
	// time the session is owned.
	o.cache.SetActive(s, false)
	o.scr.InvalidateDelay(s)
	o.touchIdx[s] = nil
	if o.rt != nil {
		o.rt.DeactivateSession(s)
	}
	// The departed session freed capacity on its agents: sessions loading
	// those agents may now have better moves available.
	st.rep.Reopt = o.capReopt(model.SessionID(-1), o.touchedIndexed(s, agents))
	return nil
}

// reoptStage feeds the event's re-optimization tasks to the shared worker
// pool and waits for them — the per-event barrier. Within it every session
// appears in at most one task and no other stage touches the event's
// sessions, so a task is the only goroutine reading or writing its
// session's variables in the live assignment.
func (st *eventState) reoptStage() {
	o := st.o
	if n := len(st.rep.Reopt); n > 0 {
		start := time.Now()
		var wg sync.WaitGroup
		for _, s := range st.rep.Reopt {
			wg.Add(1)
			o.tasks <- reoptTask{
				session: s,
				seed:    taskSeed(o.cfg.Core.Seed, s, st.seq),
				wg:      &wg,
				tally:   &st.tally,
				parent:  st.span,
			}
		}
		wg.Wait()
		st.rep.Latency = time.Since(start)
		o.mu.Lock()
		o.stats.Tasks += n
		o.mu.Unlock()
	}
	// The trigger's post-decision mean-of-max delay for admitted arrivals —
	// the per-class SLO reading — is read now, while this event still owns
	// its footprint (the scheduler releases it when this stage returns,
	// before retire runs). Pure observation, so nil-vs-enabled telemetry
	// runs stay bit-identical.
	if o.tel != nil && st.e.Kind == workload.EventArrival && st.rep.Admitted {
		st.tally.delayMS = cost.SessionDelaysOf(o.a, model.SessionID(st.e.Session)).MeanOfMaxMS
	}
}

// retire finalizes the event's report in arrival order: the per-event
// outcome tallies, the post-event objective (every cache entry an in-flight
// event could own is clean, so this never reads in-flight assignment
// state), the aggregate latency telemetry and the decision record. At
// MaxInFlight > 1 the Objective/ActiveSessions fields sample whatever
// admissions have applied by retire time — deterministic in order,
// timing-dependent in value; the cap-1 differential tests pin the values
// bit-for-bit.
func (st *eventState) retire() {
	o := st.o
	o.mu.Lock()
	o.stats.Events++
	o.stats.ReoptTotal += st.rep.Latency
	if st.rep.Latency > o.stats.ReoptMax {
		o.stats.ReoptMax = st.rep.Latency
	}
	// Only events that dispatched re-optimization tasks have a barrier
	// latency; skipped departures, drops and task-free events would pin the
	// percentiles at 0. The sink's latency histogram applies the same rule.
	if len(st.rep.Reopt) > 0 {
		o.lat.ObserveDuration(st.rep.Latency)
	}
	st.rep.Commits = st.tally.commits
	st.rep.Rejects = st.tally.rejects
	st.rep.NoChange = st.tally.noChange
	st.rep.Conflicts = st.tally.conflicts
	st.rep.Objective = o.cache.TotalObjective(o.a)
	st.rep.ActiveSessions = o.cache.NumActive()
	o.mu.Unlock()
	arg := int64(st.e.Session)
	if st.e.Kind.IsFault() {
		arg = int64(st.rep.Orphans)
	}
	st.span.EndArg(arg)
	o.emitRecord(st)
	if st.emit != nil {
		st.emit(st.rep)
	}
}

// touchedIndexed lists active sessions (≠ trigger) whose committed load
// touches any marked agent, ascending, from the committed-agents index.
// Reading the index instead of cached session loads is what keeps
// admissions from recomputing sessions another in-flight event owns.
// Caller holds o.mu.
func (o *Orchestrator) touchedIndexed(trigger model.SessionID, agents []bool) []model.SessionID {
	var out []model.SessionID
	for _, s := range o.cache.ActiveSessions() {
		if s == trigger {
			continue
		}
		for _, l := range o.touchIdx[s] {
			if agents[l] {
				out = append(out, s)
				break
			}
		}
	}
	return out
}
