package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vconf/internal/orchestrator"
	"vconf/internal/sim"
	"vconf/internal/workload"
)

// benchmarkJSON is the part of BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg benchmarkJSON
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// shrunk returns options for a small, fast run of sp.
func shrunk(t *testing.T, sp spec, traced bool) options {
	return options{sp: sp, seed: 7, seconds: 1e-3, traced: traced, out: t.TempDir(), fleets: 2, quality: 2, scale: 0.1}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	cfg := readBenchmarkJSON(t)
	if len(cfg.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json names %d workloads, want at least 2", len(cfg.Workloads))
	}
	for _, w := range cfg.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestShrunkRunsEmitEveryMetric runs every workload of BENCHMARK.json
// shrunk, untraced and traced, and checks that each run passes the gate
// and reports exactly the metrics BENCHMARK.json declares, with units.
func TestShrunkRunsEmitEveryMetric(t *testing.T) {
	cfg := readBenchmarkJSON(t)
	for _, w := range cfg.Workloads {
		sp, _ := specByName(w.Name)
		for _, traced := range []bool{false, true} {
			o := shrunk(t, sp, traced)
			res, err := measure(o)
			if err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d err=%v",
					sp.name, traced, res.Correct, res.Attempted, res.Failed, err)
			}
			want := cfg.EndToEnd
			if traced {
				want = cfg.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", sp.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", sp.name, traced, m.Name, got, m.Unit)
				}
			}
			if traced {
				base := filepath.Join(o.out, sp.name+"-seed7")
				for _, suffix := range []string{".spans.jsonl", ".decisions.jsonl", ".layers.json"} {
					if fi, err := os.Stat(base + suffix); err != nil || fi.Size() == 0 {
						t.Errorf("%s: trace file %s missing or empty (%v)", sp.name, suffix, err)
					}
				}
			}
		}
	}
}

// TestQualityIndependentOfDuration checks that decision quality comes from
// the first rounds only, so a host that fits more rounds into a run
// reports the same quality metrics for a seed.
func TestQualityIndependentOfDuration(t *testing.T) {
	sp, _ := specByName("paper-churn")
	var rounds []*round
	for i := 0; i < 3; i++ {
		r, err := runRound(sp, int64(i%2+1), scheduleSeed(7, i), sp.horizonS/10, timedRound, nil)
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, r)
	}
	short, long := endToEnd(rounds[:2], 2), endToEnd(rounds, 2)
	for _, name := range []string{"phi_per_session", "delay_ms", "traffic_mbps", "served_ratio"} {
		if short[name] != long[name] {
			t.Errorf("%s: %v over two rounds, %v over three", name, short[name], long[name])
		}
	}
	if all := endToEnd(rounds, 3); all["phi_per_session"] == short["phi_per_session"] {
		t.Error("the third round does not change phi_per_session when counted, so the check above proves nothing")
	}
}

// TestRegionalChaosRound runs one shrunk round of the workload kept out of
// BENCHMARK.json (see perfbench/DESIGN.md): it must build, pass the
// per-round gate and exercise capacity pressure and faults.
func TestRegionalChaosRound(t *testing.T) {
	sp, err := specByName("regional-chaos")
	if err != nil {
		t.Fatal(err)
	}
	r, err := runRound(sp, 1, 7, sp.horizonS/2, timedRound, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.stats.Incidents == 0 || r.stats.Orphans == 0 || r.quality.unserved == 0 {
		t.Errorf("incidents %d orphans %d unserved %d: want faults and unserved placements",
			r.stats.Incidents, r.stats.Orphans, r.quality.unserved)
	}
}

// TestDecisionTraceReplays checks that the traced run's decision trace is
// a valid sim trace that compares equal to itself.
func TestDecisionTraceReplays(t *testing.T) {
	sp, _ := specByName("paper-churn")
	o := shrunk(t, sp, true)
	if res, err := measure(o); err != nil || !res.Correct {
		t.Fatalf("correct=%v err=%v", res.Correct, err)
	}
	path := filepath.Join(o.out, "paper-churn-seed7.decisions.jsonl")
	a, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	div, n, err := sim.CompareTraces(a, b)
	if err != nil || div != nil || n == 0 {
		t.Fatalf("compare: %d records, divergence %v, err %v", n, div, err)
	}
}

// TestUnretiredEventFailsRun drops one report before the gate sees it: the
// run must fail, count the failure and report no metrics.
func TestUnretiredEventFailsRun(t *testing.T) {
	sp, _ := specByName("paper-churn")
	o := shrunk(t, sp, false)
	o.sabotage = func(retired int) bool { return retired == 5 }
	res, err := measure(o)
	if err == nil || res.Correct || res.Failed == 0 || len(res.Metrics) != 0 {
		t.Fatalf("correct=%v failed=%d metrics=%d err=%v", res.Correct, res.Failed, len(res.Metrics), err)
	}
	if !strings.Contains(err.Error(), "gate:") {
		t.Errorf("error %v does not come from the gate", err)
	}
}

// TestMismatchedDigestFailsRun corrupts the digest an earlier run of the
// same binary and seed recorded: the next run must fail.
func TestMismatchedDigestFailsRun(t *testing.T) {
	sp, _ := specByName("paper-churn")
	o := shrunk(t, sp, false)
	if res, err := measure(o); err != nil || !res.Correct {
		t.Fatalf("first run: correct=%v err=%v", res.Correct, err)
	}
	files, err := filepath.Glob(filepath.Join(o.out, "digests", "*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("digest files %v (%v)", files, err)
	}
	if res, err := measure(o); err != nil || !res.Correct {
		t.Fatalf("repeat run: correct=%v err=%v", res.Correct, err)
	}
	if err := os.WriteFile(files[0], []byte("0000000000000000 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := measure(o)
	if err == nil || res.Correct || res.Failed == 0 || len(res.Metrics) != 0 {
		t.Fatalf("corrupted digest: correct=%v failed=%d metrics=%d err=%v", res.Correct, res.Failed, len(res.Metrics), err)
	}
}

func TestCompareDigestsNamesFirstDivergence(t *testing.T) {
	want := []sim.Digest{{Phi: 1, Active: 1}, {Phi: 2, Active: 2, Commits: 1}, {Phi: 3}}
	got := append([]sim.Digest(nil), want...)
	if err := compareDigests(want, got); err != nil {
		t.Fatal(err)
	}
	got[1].Phi = 2.0000000001
	err := compareDigests(want, got)
	if err == nil || !strings.Contains(err.Error(), "event 1") {
		t.Fatalf("err = %v, want divergence at event 1", err)
	}
	if err := compareDigests(want, want[:2]); err == nil {
		t.Fatal("a shorter digest must not compare equal")
	}
}

func TestGateRejectsOutOfOrderAndUnretired(t *testing.T) {
	now := time.Now()
	a := workload.Event{TimeS: 1, Kind: workload.EventArrival, Session: 1}
	b := workload.Event{TimeS: 2, Kind: workload.EventDeparture, Session: 1}

	var g gate
	if _, err := g.retire(orchestrator.EventReport{Event: a}, now); err == nil {
		t.Error("a report with nothing pulled must fail")
	}
	g = gate{}
	g.pull(a, now)
	g.pull(b, now)
	if _, err := g.retire(orchestrator.EventReport{Event: b}, now); err == nil {
		t.Error("an out-of-order report must fail")
	}
	g = gate{}
	g.pull(a, now)
	if err := g.finish(); err == nil {
		t.Error("an unretired event must fail")
	}
	if lat, err := g.retire(orchestrator.EventReport{Event: a}, now.Add(time.Millisecond)); err != nil || lat != time.Millisecond {
		t.Errorf("retire: latency %v err %v", lat, err)
	}
	if err := g.finish(); err != nil {
		t.Error(err)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-churn", "--trace", "2"},
		{"--workload", "paper-churn", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || strings.Contains(out.String(), "{") {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
