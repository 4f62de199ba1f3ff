package orchestrator

import (
	"math"
	"math/rand"
	"time"

	"vconf/internal/assign"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/telemetry"
)

// The single-lock reference: the pre-sharding commit path, kept verbatim
// as test-only code. Snapshot and commit both serialize on o.mu, and
// proposals validate against a dense cost.Ledger while holding it. The
// P = 1 sharded pipeline is bit-identical to it; the differential tests
// replay identical schedules through both.

// useSingleLock switches a fresh orchestrator (no event handled yet) onto
// the single-lock reference: a dense ledger becomes the authoritative
// ledger, and every worker runs refineSingleLock. The reference has no
// pipelined driver.
func useSingleLock(o *Orchestrator) {
	if o.pipe != nil {
		panic("orchestrator: the single-lock reference has no pipelined driver")
	}
	o.ledger = cost.NewLedger(o.sc)
	o.refine = o.refineSingleLock
}

// useRebuild switches off the persistent delay cache on every evaluation
// scratch a fresh orchestrator owns — the commit-path scratch, the
// objective cache's and each worker's — so every evaluation rebuilds the
// session's full delay base. Apply it after useSingleLock when combining
// the two.
func useRebuild(o *Orchestrator) {
	o.scr.SetDelayCacheEnabled(false)
	o.cache.SetDelayCacheEnabled(false)
	refine := o.refine
	o.refine = func(t reoptTask, w *workerState) {
		w.scr.Eval().SetDelayCacheEnabled(false)
		refine(t, w)
	}
}

// proposal is the outcome of one refinement walk: the session's best-seen
// variable values and their (exact, session-local) objective.
type proposal struct {
	session model.SessionID
	users   []model.UserID
	flows   []model.Flow
	// userTo/flowTo are the proposed agents, aligned with users/flows.
	userTo []model.AgentID
	flowTo []model.AgentID
	phi    float64
	// cfAgent/cfGap/cfValid carry the decisive hop's counterfactual-k
	// reading (telemetry enabled only; cfAgent is -1 otherwise).
	cfAgent int
	cfGap   float64
	cfValid bool
}

// refineSingleLock snapshots the live state under the commit lock, runs a
// bounded warm-started Markov walk on the snapshot, and merges the best
// state found.
func (o *Orchestrator) refineSingleLock(t reoptTask, w *workerState) {
	scr := w.scr
	var probe *taskProbe
	var t0 time.Time
	if o.tel != nil {
		probe = o.beginTaskProbe(w)
		defer o.finishTaskProbe(t, w, probe)
		t0 = time.Now()
	}
	// Snapshot under the commit lock: clone the assignment and ledger so
	// the walk runs without blocking other workers or the event loop.
	o.mu.Lock()
	if !o.cache.Active(t.session) {
		o.mu.Unlock()
		return
	}
	a := o.a.Clone()
	ledger := o.ledger.(*cost.Ledger).Clone()
	startPhi := o.cache.SessionObjective(o.a, t.session)
	o.mu.Unlock()
	if probe != nil {
		now := time.Now()
		probe.snapshotNs += now.Sub(t0).Nanoseconds()
		t0 = now
	}

	users := o.sc.Session(t.session).Users
	flows := a.SessionFlows(t.session)
	prop := proposal{
		session: t.session,
		users:   users,
		flows:   flows,
		userTo:  make([]model.AgentID, len(users)),
		flowTo:  make([]model.AgentID, len(flows)),
		phi:     startPhi,
		cfAgent: -1,
	}
	capture := func() {
		for i, u := range users {
			prop.userTo[i] = a.UserAgent(u)
		}
		for i, f := range flows {
			prop.flowTo[i], _ = a.FlowAgent(f)
		}
	}
	capture()

	// Bounded refinement: walk the chain from the warm start, remembering
	// the best session-local objective seen.
	rng := rand.New(rand.NewSource(t.seed))
	improved := false
	for i := 0; i < o.cfg.HopBudget; i++ {
		res, err := core.HopSessionWith(a, t.session, o.ev, ledger, o.cfg.Core, rng, scr)
		if err != nil {
			o.reportErr(err)
			return
		}
		if !res.Moved {
			break // no feasible neighbor: the walk is stuck
		}
		if res.PhiAfter < prop.phi-o.cfg.ImprovementEps {
			prop.phi = res.PhiAfter
			capture()
			improved = true
			if probe != nil {
				prop.cfAgent = int(res.Decision.To)
				if !math.IsInf(res.PhiSecond, 1) {
					prop.cfGap = res.PhiSecond - res.PhiAfter
					prop.cfValid = true
				} else {
					prop.cfGap, prop.cfValid = 0, false
				}
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
	o.commitSingleLock(t, w.id, prop)
}

// commitSingleLock merges a proposal under the commit lock with optimistic
// validation: the session must still be active, the net decisions must
// still fit capacity and the delay cap against the *current* ledger, and
// the objective must still strictly improve. Accepted decisions are
// mirrored to the data plane as dual-feed migrations.
func (o *Orchestrator) commitSingleLock(t reoptTask, wid int, p proposal) {
	dense := o.ledger.(*cost.Ledger)
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.cache.Active(p.session) {
		o.stats.Rejects++ // departed while refining
		t.tally.rejects++
		o.telOutcome(wid, p.session, telemetry.OutcomeReject)
		return
	}
	curPhi := o.cache.SessionObjective(o.a, p.session)
	if p.phi >= curPhi-o.cfg.ImprovementEps {
		o.stats.NoChange++
		t.tally.noChange++
		o.telOutcome(wid, p.session, telemetry.OutcomeNoChange)
		return
	}

	// Net decisions: one per variable that differs from the live state.
	var ds []assign.Decision
	for i, u := range p.users {
		if o.a.UserAgent(u) != p.userTo[i] {
			ds = append(ds, assign.Decision{Kind: assign.UserMove, User: u, To: p.userTo[i]})
		}
	}
	for i, f := range p.flows {
		if cur, _ := o.a.FlowAgent(f); cur != p.flowTo[i] {
			ds = append(ds, assign.Decision{Kind: assign.FlowMove, Flow: f, To: p.flowTo[i]})
		}
	}
	if len(ds) == 0 {
		o.stats.NoChange++
		t.tally.noChange++
		o.telOutcome(wid, p.session, telemetry.OutcomeNoChange)
		return
	}

	curLoad := o.cache.SessionLoad(o.a, p.session)
	dense.RemoveSparse(curLoad)
	invs := make([]assign.Decision, 0, len(ds))
	rollback := func() {
		for i := len(invs) - 1; i >= 0; i-- {
			o.a.Apply(invs[i])
		}
		dense.AddSparse(curLoad)
		o.stats.Rejects++
		t.tally.rejects++
		o.telOutcome(wid, p.session, telemetry.OutcomeReject)
	}
	for _, d := range ds {
		inv, err := o.a.Apply(d)
		if err != nil {
			rollback()
			o.refErr = err
			return
		}
		invs = append(invs, inv)
	}
	// Re-evaluate the proposed state through the commit scratch: sparse
	// load, delta capacity check, and Φ with delay feasibility in one pass.
	newEval := o.ev.BeginSession(o.a, p.session, o.scr)
	newLoad := o.scr.CurLoad()
	if !dense.FitsRepairDelta(newLoad, curLoad) ||
		!newEval.DelayFeasible(o.sc.DMaxMS) ||
		newEval.Phi >= curPhi-o.cfg.ImprovementEps {
		rollback()
		return
	}
	dense.AddSparse(newLoad)
	o.cache.Invalidate(p.session)
	o.touchIdx[p.session] = newLoad.AppendAgents(nil)
	o.stats.Commits++
	t.tally.commits++
	if t.tally.chosenAgent < 0 && p.cfAgent >= 0 {
		t.tally.chosenAgent = p.cfAgent
		if p.cfValid {
			t.tally.cfGap = p.cfGap
			t.tally.cfValid = true
		}
	}
	o.telOutcome(wid, p.session, telemetry.OutcomeCommit)
	if o.rt != nil {
		for _, d := range ds {
			if err := o.rt.Migrate(o.now, d); err != nil {
				o.refErr = err
				return
			}
		}
		o.stats.Migrations += len(ds)
	}
}
