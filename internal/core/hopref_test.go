package core

import (
	"math"
	"math/rand"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/workload"
)

// The dense reference hop: the pre-sparse implementation of HopSession and
// SessionTotalRate, kept verbatim as test-only code. The differential tests
// replay whole engine runs through it (densePath) and through the
// production sparse pipeline, and require bit-identical hop sequences.

// densePath binds the dense reference into an Engine (see hopPath).
var densePath = hopPath{
	hop: func(a *assign.Assignment, s model.SessionID, ev *cost.Evaluator, ledger *cost.Ledger,
		cfg Config, rng *rand.Rand, _ *HopScratch) (HopResult, error) {
		return hopSessionDense(a, s, ev, ledger, cfg, rng)
	},
	rate: func(a *assign.Assignment, s model.SessionID, ev *cost.Evaluator, ledger *cost.Ledger,
		cfg Config, _ *HopScratch) (float64, error) {
		return sessionTotalRateDense(a, s, ev, ledger, cfg)
	},
}

// hopSessionDense is the dense reference implementation (pre-sparse
// pipeline), kept verbatim for differential testing and before/after
// benchmarking: every candidate pays a full SessionLoadOf, an O(NumAgents)
// FitsRepair scan, and a from-scratch SessionDelaysOf.
func hopSessionDense(
	a *assign.Assignment,
	s model.SessionID,
	ev *cost.Evaluator,
	ledger *cost.Ledger,
	cfg Config,
	rng *rand.Rand,
) (HopResult, error) {
	p := ev.Params()

	curLoad := p.SessionLoadOf(a, s)
	ledger.Remove(curLoad)

	phiCur := ev.SessionObjective(a, s)
	phiCurReading := phiCur
	if cfg.Noise != nil {
		phiCurReading = cfg.Noise(phiCur)
	}

	decisions := a.SessionNeighborDecisions(s)
	type candidate struct {
		d          assign.Decision
		phi        float64 // noiseless, for reporting
		phiReading float64 // possibly noisy, drives the jump
	}
	cands := make([]candidate, 0, len(decisions))
	for _, d := range decisions {
		inv, err := a.Apply(d)
		if err != nil {
			ledger.Add(curLoad)
			return HopResult{}, err
		}
		load := p.SessionLoadOf(a, s)
		if ledger.FitsRepair(load, curLoad) && cost.DelayFeasible(a, s) {
			phi := ev.SessionObjective(a, s)
			reading := phi
			if cfg.Noise != nil {
				reading = cfg.Noise(phi)
			}
			cands = append(cands, candidate{d: d, phi: phi, phiReading: reading})
		}
		if _, err := a.Apply(inv); err != nil {
			ledger.Add(curLoad)
			return HopResult{}, err
		}
	}

	res := HopResult{PhiBefore: phiCur, PhiAfter: phiCur, Feasible: len(cands)}
	candPhis := make([]float64, len(cands))
	for i, c := range cands {
		candPhis[i] = c.phi
	}
	res.rankCandidates(candPhis)
	if len(cands) == 0 {
		ledger.Add(curLoad)
		return res, nil
	}

	halfBeta := 0.5 * cfg.Beta * cfg.ObjectiveScale
	maxExp := math.Inf(-1)
	for _, c := range cands {
		if e := halfBeta * (phiCurReading - c.phiReading); e > maxExp {
			maxExp = e
		}
	}
	weights := make([]float64, len(cands))
	total := 0.0
	for i, c := range cands {
		weights[i] = math.Exp(halfBeta*(phiCurReading-c.phiReading) - maxExp)
		total += weights[i]
	}
	res.TotalRate = total * math.Exp(maxExp)

	pick := rng.Float64() * total
	chosen := len(cands) - 1
	acc := 0.0
	for i, w := range weights {
		acc += w
		if pick < acc {
			chosen = i
			break
		}
	}

	c := cands[chosen]
	if _, err := a.Apply(c.d); err != nil {
		ledger.Add(curLoad)
		return HopResult{}, err
	}
	ledger.Add(p.SessionLoadOf(a, s))
	res.Moved = true
	res.Decision = c.d
	res.PhiAfter = c.phi
	return res, nil
}

// sessionTotalRateDense is the dense reference for SessionTotalRate.
func sessionTotalRateDense(
	a *assign.Assignment,
	s model.SessionID,
	ev *cost.Evaluator,
	ledger *cost.Ledger,
	cfg Config,
) (float64, error) {
	p := ev.Params()
	curLoad := p.SessionLoadOf(a, s)
	ledger.Remove(curLoad)
	defer ledger.Add(curLoad)

	phiCur := ev.SessionObjective(a, s)
	halfBeta := 0.5 * cfg.Beta * cfg.ObjectiveScale
	total := 0.0
	for _, d := range a.SessionNeighborDecisions(s) {
		inv, err := a.Apply(d)
		if err != nil {
			return 0, err
		}
		load := p.SessionLoadOf(a, s)
		if ledger.FitsRepair(load, curLoad) && cost.DelayFeasible(a, s) {
			total += math.Exp(halfBeta * (phiCur - ev.SessionObjective(a, s)))
		}
		if _, err := a.Apply(inv); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// BenchmarkHopSession measures the reference hop paths on the same
// 100-agent fleet as the production benchmark of the same name in the
// module root: "dense" is the reference implementation the sparse pipeline
// replaced, "sparse-rebuild" the sparse pipeline with the persistent delay
// cache switched off (the delay base is rebuilt every hop), and
// "rebuild-hop" the same on the N_ngbr = 1 candidate window, the reference
// for the root benchmark's "warm-hop".
func BenchmarkHopSession(b *testing.B) {
	run := func(b *testing.B, hop func(a *assign.Assignment, s model.SessionID, ev *cost.Evaluator,
		ledger *cost.Ledger, cfg Config, rng *rand.Rand, scr *HopScratch) (HopResult, error),
		window int, delayCache bool) {
		sc, err := workload.GenerateSyntheticFleet(workload.DefaultFleetConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		p := cost.DefaultParams()
		ev, err := cost.NewEvaluator(sc, p)
		if err != nil {
			b.Fatal(err)
		}
		a := assign.New(sc)
		ledger := cost.NewLedger(sc)
		if err := baseline.Assign(a, p, ledger); err != nil {
			b.Fatal(err)
		}
		cfg := DefaultConfig(1)
		cfg.NeighborWindow = window
		rng := rand.New(rand.NewSource(1))
		scr := NewHopScratch(ev)
		scr.Eval().SetDelayCacheEnabled(delayCache)
		sessions := sc.NumSessions()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hop(a, model.SessionID(i%sessions), ev, ledger, cfg, rng, scr); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("dense", func(b *testing.B) { run(b, densePath.hop, 0, true) })
	b.Run("sparse-rebuild", func(b *testing.B) { run(b, HopSessionWith, 0, false) })
	b.Run("rebuild-hop", func(b *testing.B) { run(b, HopSessionWith, 1, false) })
}
