package orchestrator

import (
	"math"
	"strings"
	"testing"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/workload"
)

// TestPipelinedBitIdenticalToSerial is the pipelined-vs-serial differential:
// identical churn schedules through the barrier path (Pipeline off) and the
// scheduler path at MaxInFlight = 1 must produce bit-identical assignments,
// objective bits and activity counters. With one in-flight event the
// scheduler degenerates to admit → re-optimize → retire in arrival order,
// task seeds depend only on (seed, session, event index), and the
// committed-agents index plus cache priming reproduce the serial touched-set
// and objective computations exactly — so any divergence is a real bug in
// the pipelined path.
func TestPipelinedBitIdenticalToSerial(t *testing.T) {
	cases := []struct {
		name   string
		window int
		slack  int
		wl     func() workload.Config
	}{
		{"unconstrained", 0, 0, func() workload.Config { return workload.Prototype(41) }},
		{"constrained", 0, 0, func() workload.Config {
			wl := workload.Prototype(42)
			wl.MeanBandwidthMbps = 220
			wl.MeanTranscodeSlots = 6
			return wl
		}},
		// Windowed: footprints are stripe-restricted and the sharded workers
		// take route-restricted snapshots.
		{"windowed", 3, 0, func() workload.Config { return workload.Prototype(43) }},
		// Slack widens the stripe footprints; at cap 1 it must change
		// nothing.
		{"windowed-slack", 3, 2, func() workload.Config { return workload.Prototype(44) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ev, _ := testStack(t, tc.wl())
			events := churn(t, ev, 45, 300, 0.1, 90)

			serial := DefaultConfig(45)
			serial.Shards = 1
			serial.LedgerShards = 1
			serial.Core.NeighborWindow = tc.window
			encS, phiS, stS := runSchedule(t, tc.wl(), events, serial)

			piped := DefaultConfig(45)
			piped.Shards = 1
			piped.LedgerShards = 1
			piped.Core.NeighborWindow = tc.window
			piped.Pipeline = true
			piped.MaxInFlight = 1
			piped.FootprintSlack = tc.slack
			encP, phiP, stP := runSchedule(t, tc.wl(), events, piped)

			if encS != encP {
				t.Fatal("serial and pipelined (max in-flight 1) assignments diverged")
			}
			if math.Float64bits(phiS) != math.Float64bits(phiP) {
				t.Fatalf("objectives diverged: %v vs %v", phiS, phiP)
			}
			if coreStats(stS) != coreStats(stP) {
				t.Fatalf("stats diverged:\n serial    %+v\n pipelined %+v", coreStats(stS), coreStats(stP))
			}
		})
	}
}

// TestPipelinedReportsMatchSerial pins the per-event report stream, not
// just the final state: event order, admission outcomes, re-optimization
// sets, per-event commit/reject/no-change tallies and objective bits must
// all match the serial path at MaxInFlight = 1.
func TestPipelinedReportsMatchSerial(t *testing.T) {
	wl := func() workload.Config {
		c := workload.Prototype(46)
		c.MeanBandwidthMbps = 260
		c.MeanTranscodeSlots = 8
		return c
	}
	ev, _ := testStack(t, wl())
	events := churn(t, ev, 47, 250, 0.12, 80)

	run := func(cfg Config) []EventReport {
		evv, boot := testStack(t, wl())
		o, err := New(evv, boot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		reps, err := o.Run(events, 1e18)
		if err != nil {
			t.Fatal(err)
		}
		return reps
	}
	serial := DefaultConfig(47)
	serial.Shards = 1
	serial.LedgerShards = 1
	repsS := run(serial)

	piped := serial
	piped.Pipeline = true
	piped.MaxInFlight = 1
	repsP := run(piped)

	if len(repsS) != len(repsP) {
		t.Fatalf("report counts diverged: %d vs %d", len(repsS), len(repsP))
	}
	for i := range repsS {
		s, p := repsS[i], repsP[i]
		if s.Event != p.Event || s.Admitted != p.Admitted || s.ActiveSessions != p.ActiveSessions {
			t.Fatalf("event %d diverged:\n serial    %+v\n pipelined %+v", i, s, p)
		}
		if s.Commits != p.Commits || s.Rejects != p.Rejects || s.NoChange != p.NoChange {
			t.Fatalf("event %d tallies diverged:\n serial    %+v\n pipelined %+v", i, s, p)
		}
		if len(s.Reopt) != len(p.Reopt) {
			t.Fatalf("event %d reopt sets diverged: %v vs %v", i, s.Reopt, p.Reopt)
		}
		for j := range s.Reopt {
			if s.Reopt[j] != p.Reopt[j] {
				t.Fatalf("event %d reopt sets diverged: %v vs %v", i, s.Reopt, p.Reopt)
			}
		}
		if math.Float64bits(s.Objective) != math.Float64bits(p.Objective) {
			t.Fatalf("event %d objective diverged: %v vs %v", i, s.Objective, p.Objective)
		}
	}
}

// TestPipelineStorm is the pipelined concurrency storm: overlapping events
// on a finite-capacity regional fleet whose clustered sessions share their
// home regions' agents, several events in flight, candidate windows ON so
// footprints actually admit in parallel. The schedule runs in chunks; after
// every chunk the orchestrator is drained and the full invariant checker —
// capacity, completeness, delay cap, and exact ledger-vs-assignment
// reconciliation — must pass. Run under -race in CI.
func TestPipelineStorm(t *testing.T) {
	fc := workload.DefaultFleetConfig(51)
	fc.NumAgents = 24
	fc.NumUsers = 90
	fc.Regions = 4
	fc.AgentBandwidthMbps = 260
	fc.AgentTranscodeSlots = 10
	sc, err := workload.GenerateSyntheticFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultParams()
	evv, err := cost.NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := agrank.DefaultOptions(3)
	boot := func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		_, err := agrank.BootstrapSession(a, s, p, ledger, opts)
		return err
	}
	events, err := workload.PoissonSchedule(workload.ChurnConfig{
		Seed: 51, HorizonS: 300, ArrivalRatePerS: 0.3, MeanHoldS: 80,
		NumSessions: sc.NumSessions(),
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, slack := range []int{0, 1} {
		cfg := DefaultConfig(51)
		cfg.Shards = 8
		cfg.LedgerShards = fc.NumAgents // per-agent stripes: maximal footprint disjointness
		cfg.HopBudget = 12
		cfg.MaxReoptSessions = 8
		cfg.Core.NeighborWindow = 6
		cfg.Pipeline = true
		cfg.MaxInFlight = 6
		cfg.FootprintSlack = slack
		o, err := New(evv, boot, cfg)
		if err != nil {
			t.Fatal(err)
		}

		const chunk = 40
		for i := 0; i < len(events); i += chunk {
			end := i + chunk
			if end > len(events) {
				end = len(events)
			}
			if _, err := o.Run(events[i:end], 0); err != nil {
				t.Fatalf("slack %d chunk [%d,%d): %v", slack, i, end, err)
			}
			if err := o.CheckInvariants(); err != nil {
				t.Fatalf("slack %d after chunk [%d,%d): %v", slack, i, end, err)
			}
		}
		st := o.Stats()
		o.Close()
		if st.Events != len(events) {
			t.Fatalf("slack %d processed %d events, want %d", slack, st.Events, len(events))
		}
		if st.Tasks == 0 || st.Commits == 0 {
			t.Fatalf("slack %d storm did no re-optimization work: %+v", slack, st)
		}
		t.Logf("slack %d storm: %d events, %d tasks, %d commits, %d conflicts, %d rejects, "+
			"in-flight peak %d, queue peak %d, stalls %d, reopt waits %d, p50 %v, p99 %v",
			slack, st.Events, st.Tasks, st.Commits, st.Conflicts, st.Rejects,
			st.InFlightPeak, st.QueueDepthPeak, st.AdmissionStalls, st.ReoptWaits,
			st.ReoptP50, st.ReoptP99)
	}
}

// TestPipelineOverlapHappens asserts the scheduler actually overlaps events
// on a low-conflict workload (disjoint regional sessions, windows on): the
// in-flight high-water mark must exceed 1 and the latency percentiles must
// be populated.
func TestPipelineOverlapHappens(t *testing.T) {
	fc := workload.DefaultFleetConfig(52)
	fc.NumAgents = 32
	fc.NumUsers = 120
	fc.Regions = 8
	fc.CrossRegionFrac = -1 // explicit zero: purely intra-region sessions
	fc.AgentBandwidthMbps = 2000
	fc.AgentTranscodeSlots = 16
	sc, err := workload.GenerateSyntheticFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultParams()
	evv, err := cost.NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := agrank.DefaultOptions(3)
	boot := func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		_, err := agrank.BootstrapSession(a, s, p, ledger, opts)
		return err
	}
	events, err := workload.PoissonSchedule(workload.ChurnConfig{
		Seed: 52, HorizonS: 400, ArrivalRatePerS: 0.5, MeanHoldS: 60,
		NumSessions: sc.NumSessions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(52)
	cfg.Shards = 4
	cfg.LedgerShards = fc.NumAgents
	cfg.HopBudget = 24
	cfg.Core.NeighborWindow = 4
	cfg.Pipeline = true
	cfg.MaxInFlight = 4
	o, err := New(evv, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.Run(events, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.InFlightPeak < 2 {
		t.Fatalf("pipelined run never overlapped events: %+v", st)
	}
	if st.ReoptP99 == 0 || st.ReoptP99 < st.ReoptP50 {
		t.Fatalf("latency percentiles unpopulated or inverted: p50 %v p99 %v", st.ReoptP50, st.ReoptP99)
	}
}

// TestPipelineConfigValidation pins the pipelined-mode config contract.
func TestPipelineConfigValidation(t *testing.T) {
	ev, boot := testStack(t, workload.Prototype(53))
	bad := DefaultConfig(53)
	bad.Pipeline = true
	bad.LedgerShards = -1
	if _, err := New(ev, boot, bad); err == nil || !strings.Contains(err.Error(), "invalid config: ledger shards=-1") {
		t.Fatalf("negative ledger shard count: got %v, want the generic validation error", err)
	}
	bad = DefaultConfig(53)
	bad.Pipeline = true
	bad.MaxInFlight = -1
	if _, err := New(ev, boot, bad); err == nil {
		t.Fatal("negative max in-flight accepted")
	}
	bad = DefaultConfig(53)
	bad.Pipeline = true
	bad.FootprintSlack = -2
	if _, err := New(ev, boot, bad); err == nil {
		t.Fatal("footprint slack below -1 accepted")
	}
	ok := DefaultConfig(53)
	ok.Pipeline = true
	ok.FootprintSlack = -1 // fully conservative stripe footprints
	o, err := New(ev, boot, ok)
	if err != nil {
		t.Fatal(err)
	}
	o.Close()
}

// TestPipelinedDropsAndSkips replays the admission edge cases through the
// scheduler: an infeasible arrival is dropped with clean state, and its
// echo departure is skipped — both producing empty footprints that never
// enter the conflict DAG.
func TestPipelinedDropsAndSkips(t *testing.T) {
	wl := workload.Prototype(54)
	wl.MeanBandwidthMbps = 30
	wl.MeanTranscodeSlots = 1
	ev, boot := testStack(t, wl)
	cfg := DefaultConfig(54)
	cfg.Shards = 2
	cfg.Pipeline = true
	cfg.MaxInFlight = 2
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	rep, err := o.HandleEvent(workload.Event{TimeS: 1, Kind: workload.EventArrival, Session: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted {
		t.Skipf("session 0 admitted under tight capacity; drop path covered elsewhere")
	}
	if st := o.Stats(); st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rep, err = o.HandleEvent(workload.Event{TimeS: 2, Kind: workload.EventDeparture, Session: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted {
		t.Fatal("skipped departure reported as live")
	}
	if st := o.Stats(); st.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", st.Skipped)
	}
	// Scheduler-level validation errors surface synchronously.
	if _, err := o.HandleEvent(workload.Event{TimeS: 3, Kind: workload.EventArrival, Session: -1}); err == nil {
		t.Fatal("negative session accepted")
	}
	if _, err := o.HandleEvent(workload.Event{TimeS: 3, Session: 0}); err == nil {
		t.Fatal("invalid event kind accepted")
	}
}

// TestPipelinedRecoversAfterAdmissionError pins error-recovery parity with
// the serial path: an admission error (double arrival) surfaces once, the
// orchestrator keeps processing subsequent events instead of staying
// wedged, the failed event releases its event index (task seeds stay
// aligned), and the post-recovery stream remains bit-identical to a serial
// run of the same event sequence.
func TestPipelinedRecoversAfterAdmissionError(t *testing.T) {
	ev, _ := testStack(t, workload.Prototype(55))
	tail := churn(t, ev, 56, 200, 0.1, 90)
	sequence := append([]workload.Event{
		{TimeS: 0.1, Kind: workload.EventArrival, Session: 0},
		{TimeS: 0.2, Kind: workload.EventArrival, Session: 0}, // duplicate: admission error
	}, tail...)

	run := func(pipelined bool) (string, float64, int) {
		evv, boot := testStack(t, workload.Prototype(55))
		cfg := DefaultConfig(55)
		cfg.Shards = 1
		cfg.LedgerShards = 1
		cfg.Pipeline = pipelined
		cfg.MaxInFlight = 1
		o, err := New(evv, boot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		errs := 0
		for _, e := range sequence {
			// Duplicates of an already-live session error and are skipped;
			// the stream continues either way — on both paths.
			if e.Kind == workload.EventArrival && o.cache.Active(model.SessionID(e.Session)) {
				if _, err := o.HandleEvent(e); err == nil {
					t.Fatal("double arrival accepted")
				}
				errs++
				continue
			}
			if _, err := o.HandleEvent(e); err != nil {
				t.Fatalf("pipelined=%v wedged after admission error: %v", pipelined, err)
			}
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return o.Assignment().Encode(), o.Objective(), errs
	}
	encS, phiS, errsS := run(false)
	encP, phiP, errsP := run(true)
	if errsS == 0 || errsS != errsP {
		t.Fatalf("error counts diverged: serial %d, pipelined %d", errsS, errsP)
	}
	if encS != encP {
		t.Fatal("post-recovery assignments diverged between serial and pipelined paths")
	}
	if math.Float64bits(phiS) != math.Float64bits(phiP) {
		t.Fatalf("post-recovery objectives diverged: %v vs %v", phiS, phiP)
	}
}
