package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunQuickSmoke(t *testing.T) {
	// Fast experiments only; the heavy sweeps get their own -quick runs.
	for _, id := range []string{"fig2", "fig3"} {
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{"-run", id, "-quick"}, &buf); err != nil {
				t.Fatalf("run(%s): %v", id, err)
			}
			out := buf.String()
			if !strings.Contains(out, id+" |") {
				t.Fatalf("output missing %q rows:\n%s", id, out)
			}
			if !strings.Contains(out, "done in") {
				t.Fatal("missing completion line")
			}
		})
	}
}

func TestRunQuickSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps take a few seconds")
	}
	for _, id := range []string{"table2", "fig9", "fig10", "solvers"} {
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{"-run", id, "-quick", "-scenarios", "2", "-duration", "30"}, &buf); err != nil {
				t.Fatalf("run(%s): %v", id, err)
			}
			if buf.Len() == 0 {
				t.Fatal("no output")
			}
		})
	}
}

func TestRunMicroQuickJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("micro benchmarks take several seconds")
	}
	var buf bytes.Buffer
	if err := run([]string{"-run", "micro", "-quick", "-format", "json"}, &buf); err != nil {
		t.Fatalf("run(micro): %v", err)
	}
	var rep microReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("micro output is not valid JSON: %v\n%s", err, buf.String())
	}
	// Run metadata must identify the toolchain, host shape and flag surface.
	if rep.Meta.GoVersion == "" || rep.Meta.NumCPU <= 0 || rep.Meta.GOMAXPROCS <= 0 {
		t.Fatalf("meta incomplete: %+v", rep.Meta)
	}
	if rep.Meta.Seed != 1 {
		t.Fatalf("meta seed = %d, want default 1", rep.Meta.Seed)
	}
	if rep.Meta.Flags["quick"] != "true" || rep.Meta.Flags["format"] != "json" {
		t.Fatalf("meta flags missing effective values: %v", rep.Meta.Flags)
	}
	if rep.Meta.GeneratedAt == "" {
		t.Fatal("meta missing generation timestamp")
	}
	// 3 sparse families, plus the delay-cache series: the warm-hop vs
	// rebuild-hop pair and the warm objective point.
	if len(rep.Benchmarks) != 6 {
		t.Fatalf("benchmarks = %d, want 6 (3 sparse families + 3 delay-cache series)", len(rep.Benchmarks))
	}
	names := make(map[string]bool, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		names[b.Name] = true
		if b.NsPerOp <= 0 || b.Iterations <= 0 {
			t.Fatalf("degenerate measurement: %+v", b)
		}
		if (b.Name == "HopSession/sparse" || b.Name == "HopSession/warm-hop") && b.AllocsPerOp != 0 {
			t.Fatalf("sparse hop path allocates: %+v", b)
		}
	}
	for _, want := range []string{"HopSession/warm-hop", "HopSession/rebuild-hop", "SessionObjective/warm"} {
		if !names[want] {
			t.Fatalf("missing delay-cache series %q in %v", want, names)
		}
	}
	if sp, ok := rep.Speedups["HopSession/warm-hop"]; !ok || sp <= 0 {
		t.Fatalf("warm-hop speedup unrecorded: %v", rep.Speedups)
	}
	if rep.Speedups["SessionObjective/warm"] <= 1 {
		t.Fatalf("warm objective evaluation slower than rebuild: %v", rep.Speedups)
	}
}

func TestRunMicroRejectsCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "micro", "-format", "csv"}, &buf); err == nil {
		t.Fatal("micro with csv format accepted")
	}
	if err := run([]string{"-run", "fig3", "-format", "json"}, &buf); err == nil {
		t.Fatal("json format accepted for a table experiment")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig99"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-format", "xml"}, &buf); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestRunCSVFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig3", "-format", "csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "done in") {
		t.Fatal("csv output should not carry timing lines")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 9 {
		t.Fatalf("csv lines = %d, want ≥ 9", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "fig3,") {
			t.Fatalf("csv line missing experiment column: %q", line)
		}
	}
}

func TestQuickWorkloadShrinks(t *testing.T) {
	wl := quickWorkload(1)
	if wl.NumUsers != 30 || wl.NumUserNodes != 64 {
		t.Fatalf("quick workload = %d users / %d nodes", wl.NumUsers, wl.NumUserNodes)
	}
}
