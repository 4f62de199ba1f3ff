package orchestrator

// This file is the pipelined driver (Config.Pipeline): it submits the
// shared event stages (stages.go) to the dependency-aware scheduler in
// internal/pipeline, so independent churn events overlap end-to-end instead
// of barriering one at a time.
//
// Consistency story (what makes overlap safe):
//
//   - Session ownership. An event's footprint session set is the trigger
//     plus its re-optimization set, fixed at admission; the scheduler
//     guarantees (a) no two events owning a common session ever execute
//     concurrently and (b) an event's admission never runs while an
//     in-flight event claims its trigger. Since session variables live in
//     disjoint slice ranges (internal/assign) and refinement tasks touch
//     only their own session, all unlocked assignment accesses stay
//     single-owner — the same invariant the serial driver provides
//     globally, now scoped per footprint.
//   - Touched-set consistency. Admissions discover which sessions share
//     agents with the trigger from the committed-agents index touchIdx,
//     never from in-flight sessions' assignment state.
//   - Objective consistency. The objective cache is never left dirty for a
//     session an in-flight event may own: arrivals refresh their session
//     at admission, committing workers Prime it from their own evaluation,
//     departures deactivate it. Retire-time objective sums therefore never
//     recompute from the shared assignment.
//   - Capacity. Unchanged: the lock-striped shard ledger validates every
//     commit against live usage, and the epoch-stamped Conflict/retry path
//     absorbs whatever footprint under-estimation admits (walks evaluated
//     on snapshots another in-flight event has since invalidated).

import (
	"vconf/internal/model"
	"vconf/internal/pipeline"
	"vconf/internal/shard"
)

// submit hands the event's stages to the scheduler. The returned channel
// closes once the event retires (or is discarded by a stream abort).
func (o *Orchestrator) submit(st *eventState) (<-chan struct{}, error) {
	return o.pipe.Submit(pipeline.Exec{
		Trigger: int32(st.e.Session),
		OnAdmit: func(stalled bool) { st.stalled = stalled },
		Admit:   st.admitFootprint,
		Reopt:   func() error { st.reoptStage(); return nil },
		Retire:  st.retire,
	})
}

// handlePipelined submits one event and blocks until it retires. Because
// retirement follows arrival order, returning also means every earlier
// event has retired — the orchestrator is quiesced.
func (o *Orchestrator) handlePipelined(st *eventState) error {
	ch, err := o.submit(st)
	if err != nil {
		return err
	}
	<-ch
	// Drain (a no-op wait here: our event retiring means the queue is empty
	// under the single-caller discipline) surfaces and clears any stream
	// error, so a failed event reports once and the orchestrator keeps
	// working — the serial driver's error semantics.
	if err := o.pipe.Drain(); err != nil {
		// A failed admission never happened: release its event index, as the
		// serial driver does. Safe under the single-caller discipline: st.seq
		// is necessarily the last index assigned.
		if st.admitErr != nil {
			o.eventIdx = st.seq
		}
		return err
	}
	return nil
}

// admitFootprint is the scheduler's admission stage: the shared admission
// plus the event's conflict footprint, under one o.mu hold. Dropped
// arrivals and skipped departures claim nothing.
func (st *eventState) admitFootprint() (pipeline.Footprint, error) {
	o := st.o
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := st.admitLocked(); err != nil {
		st.admitErr = err
		return pipeline.Footprint{}, err
	}
	if !st.rep.Admitted {
		return pipeline.Footprint{}, nil
	}
	return o.footprintLocked(model.SessionID(st.e.Session), st.rep.Reopt), nil
}

// footprintLocked derives an event's conflict footprint: the owned session
// set (trigger + re-optimization set) and the ledger stripes those
// sessions' walks can read or commit to — each session's committed agents
// plus its members' candidate windows, widened by FootprintSlack. Without a
// candidate window a walk can move a session onto any agent, so the
// footprint claims every stripe (correct, but serializing: windows are what
// unlock event-level parallelism). Caller holds o.mu.
func (o *Orchestrator) footprintLocked(trigger model.SessionID, reopt []model.SessionID) pipeline.Footprint {
	fp := pipeline.Footprint{Sessions: make([]int32, 0, len(reopt)+1)}
	fp.Sessions = append(fp.Sessions, int32(trigger))
	for _, s := range reopt {
		if s != trigger {
			fp.Sessions = append(fp.Sessions, int32(s))
		}
	}
	if o.nbrIdx == nil || o.cfg.FootprintSlack < 0 {
		fp.Shards = make([]int32, o.shl.NumShards())
		for i := range fp.Shards {
			fp.Shards[i] = int32(i)
		}
		return fp
	}
	var agents []model.AgentID
	for _, s32 := range fp.Sessions {
		s := model.SessionID(s32)
		agents = append(agents, o.touchIdx[s]...)
		if s == trigger && o.touchIdx[s] == nil {
			continue // departed trigger: owned but never walked
		}
		for _, u := range o.sc.Session(s).Users {
			agents = append(agents, o.nbrIdx.UserWindow(u)...)
		}
	}
	var r shard.Route
	o.shl.ResetRoute(&r)
	o.shl.RouteAgents(&r, agents)
	o.shl.ExpandRoute(&r, o.cfg.FootprintSlack)
	fp.Shards = append(fp.Shards, r.Shards()...)
	return fp
}
