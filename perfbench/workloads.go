package main

import (
	"fmt"
	"runtime"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/confsim"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/faults"
	"vconf/internal/model"
	"vconf/internal/orchestrator"
	"vconf/internal/sim"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// spec is one benchmark workload: a scenario and event schedule derived
// from a single seed, replayed through Orchestrator.RunSource.
type spec struct {
	name string
	// horizonS is the virtual horizon of one round.
	horizonS float64
	build    func(fleetSeed, seed int64, horizonS float64, h hooks) (*fixture, error)
}

// hooks instrument a fixture from outside the program: wrapBoot wraps the
// admission bootstrapper handed to orchestrator.New, and traced attaches a
// telemetry.Sink.
type hooks struct {
	wrapBoot func(core.Bootstrapper) core.Bootstrapper
	traced   bool
}

// fixture is everything one round drives.
type fixture struct {
	ev       *cost.Evaluator
	orc      *orchestrator.Orchestrator
	rt       *confsim.Runtime // nil when no data plane is attached
	sink     *telemetry.Sink  // nil unless traced
	src      orchestrator.EventSource
	horizonS float64
	shards   int
}

var specs = []spec{
	{name: "paper-churn", horizonS: 330, build: buildPaperChurn},
	{name: "regional-chaos", horizonS: 200, build: buildRegionalChaos},
	{name: "fleet-scale", horizonS: 600, build: buildFleetScale},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func agrankBoot(p cost.Params, nngbr int) core.Bootstrapper {
	opts := agrank.DefaultOptions(nngbr)
	return func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		_, err := agrank.BootstrapSession(a, s, p, ledger, opts)
		return err
	}
}

// newFixture builds the orchestrator over ev with the default config plus
// the given overrides, and the optional telemetry sink.
func newFixture(ev *cost.Evaluator, boot core.Bootstrapper, cfg orchestrator.Config, homes []int,
	src orchestrator.EventSource, horizonS float64, h hooks) (*fixture, error) {
	f := &fixture{ev: ev, src: src, horizonS: horizonS, shards: runtime.GOMAXPROCS(0)}
	if h.traced {
		f.sink = telemetry.New(telemetry.Config{Workers: f.shards, SessionRegion: homes})
		cfg.Telemetry = f.sink
	}
	if h.wrapBoot != nil {
		boot = h.wrapBoot(boot)
	}
	orc, err := orchestrator.New(ev, boot, cfg)
	if err != nil {
		return nil, err
	}
	f.orc = orc
	return f, nil
}

// buildPaperChurn is the paper's §V-B setting: 7 EC2 agents, 200 users in
// sessions of 2–5, unlimited capacity. Half the session pool is live at
// t=0 (admitted by arrivals at t=0), then Poisson churn at λ=0.5/s with a
// 60 s mean hold; a confsim data plane mirrors every migration.
func buildPaperChurn(fleetSeed, seed int64, horizonS float64, h hooks) (*fixture, error) {
	sc, err := workload.Generate(workload.LargeScale(fleetSeed))
	if err != nil {
		return nil, err
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		return nil, err
	}
	n := sc.NumSessions()
	churn, err := workload.NewChurnSource(workload.ChurnConfig{
		Seed: seed, HorizonS: horizonS, ArrivalRatePerS: 0.5, MeanHoldS: 60,
		NumSessions: n, InitialActive: n / 2,
	})
	if err != nil {
		return nil, err
	}
	initial := make([]workload.Event, n/2)
	for s := range initial {
		initial[s] = workload.Event{Kind: workload.EventArrival, Session: s}
	}
	src := sim.New(sim.NewSliceSource(initial), churn)
	f, err := newFixture(ev, agrankBoot(p, 2), orchestrator.DefaultConfig(seed), nil, src, horizonS, h)
	if err != nil {
		return nil, err
	}
	rt, err := confsim.New(sc, p, confsim.DefaultConfig(seed))
	if err != nil {
		f.orc.Close()
		return nil, err
	}
	f.orc.AttachRuntime(rt)
	f.rt = rt
	return f, nil
}

// buildRegionalChaos is a 96-agent, 6-region fleet with finite, skewed
// capacity and sessions of 4–6 (10% cross-region members). Poisson churn
// over the first 60% of the session pool is merged with a heavy fault
// schedule whose flash crowds draw from the reserved 40%.
func buildRegionalChaos(fleetSeed, seed int64, horizonS float64, h hooks) (*fixture, error) {
	const agents, regions = 96, 6
	fc := workload.DefaultFleetConfig(fleetSeed)
	fc.NumAgents = agents
	fc.NumUsers = 8 * agents
	fc.MinSessionSize = 4
	fc.MaxSessionSize = 6
	fc.Regions = regions
	sc, homes, err := workload.GenerateSyntheticFleetRegions(fc)
	if err != nil {
		return nil, err
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		return nil, err
	}
	nChurn := len(homes) * 3 / 5
	churn, err := workload.NewChurnSource(workload.ChurnConfig{
		Seed: seed, HorizonS: horizonS, ArrivalRatePerS: 1, MeanHoldS: 80, NumSessions: nChurn,
	})
	if err != nil {
		return nil, err
	}
	pools := make([][]int, regions)
	for s := nChurn; s < len(homes); s++ {
		pools[homes[s]] = append(pools[homes[s]], s)
	}
	agentRegion := workload.AgentRegions(agents, regions)
	fsrc, err := faults.NewSource(faults.Config{
		Seed:           seed + 1,
		HorizonS:       horizonS,
		NumAgents:      agents,
		AgentRegion:    agentRegion,
		AgentMTBFS:     2 * horizonS,
		AgentMTTRS:     horizonS / 5,
		RegionMTBFS:    4 * horizonS,
		RegionMTTRS:    horizonS / 8,
		DegradeMTBFS:   2 * horizonS,
		DegradeMTTRS:   horizonS / 5,
		DegradeFloor:   0.4,
		FlashMTBFS:     horizonS / 2,
		FlashIntensity: 4,
		FlashHoldS:     40,
		FlashSessions:  pools,
	})
	if err != nil {
		return nil, err
	}
	cfg := orchestrator.DefaultConfig(seed)
	cfg.Core.NeighborWindow = 4
	cfg.AgentRegion = agentRegion
	return newFixture(ev, agrankBoot(p, 3), cfg, homes, sim.New(churn, fsrc), horizonS, h)
}

// buildFleetScale is a 384-agent, 6-region fleet of 3072 users in small
// sessions (2–3 members) under Poisson churn at λ=1/s with an 80 s hold,
// plus light faults (agent failures, degradations, a regional outage) on
// roomy capacity: light walks, so admission over a large fleet, snapshots,
// per-event allocation, the solver's cold start and fault healing show.
func buildFleetScale(fleetSeed, seed int64, horizonS float64, h hooks) (*fixture, error) {
	const agents, regions = 384, 6
	fc := workload.DefaultFleetConfig(fleetSeed)
	fc.NumAgents = agents
	fc.NumUsers = 8 * agents
	fc.MinSessionSize = 2
	fc.MaxSessionSize = 3
	fc.Regions = regions
	sc, homes, err := workload.GenerateSyntheticFleetRegions(fc)
	if err != nil {
		return nil, err
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		return nil, err
	}
	churn, err := workload.NewChurnSource(workload.ChurnConfig{
		Seed: seed, HorizonS: horizonS, ArrivalRatePerS: 1, MeanHoldS: 80, NumSessions: sc.NumSessions(),
	})
	if err != nil {
		return nil, err
	}
	agentRegion := workload.AgentRegions(agents, regions)
	fsrc, err := faults.NewSource(faults.Config{
		Seed:         seed + 1,
		HorizonS:     horizonS,
		NumAgents:    agents,
		AgentRegion:  agentRegion,
		AgentMTBFS:   100 * horizonS,
		AgentMTTRS:   horizonS / 5,
		RegionMTBFS:  12 * horizonS,
		RegionMTTRS:  horizonS / 8,
		DegradeMTBFS: 100 * horizonS,
		DegradeMTTRS: horizonS / 5,
		DegradeFloor: 0.4,
	})
	if err != nil {
		return nil, err
	}
	cfg := orchestrator.DefaultConfig(seed)
	cfg.Core.NeighborWindow = 4
	cfg.AgentRegion = agentRegion
	return newFixture(ev, agrankBoot(p, 3), cfg, homes, sim.New(churn, fsrc), horizonS, h)
}
