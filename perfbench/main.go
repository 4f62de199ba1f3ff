// Command perfbench is the repository's end-to-end benchmark: it replays
// one seeded workload through Orchestrator.RunSource in a closed loop (each
// event is pulled only after the previous one's report arrived), gates
// every round on correctness, and prints the metrics by name and unit,
// with a final JSON line.
//
//	perfbench -workload paper-churn -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it
// alternates untraced and traced rounds and reports the per-layer metrics;
// the first traced round's spans and decision trace, and the run's
// per-layer metrics, go to -out.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"vconf/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options configure one benchmark run.
type options struct {
	sp      spec
	seed    int64
	seconds float64
	traced  bool
	out     string
	// fleets is how many fleets the rounds cycle through, quality how many
	// rounds every run plays at least and takes decision quality from, and
	// scale shrinks the workload's horizon (all below defaults in tests
	// only).
	fleets  int
	quality int
	scale   float64
	// sabotage is passed to every round (tests only).
	sabotage func(int) bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fleets is how many fleets the rounds of a run cycle through. Fleet i is
// generated from seed i+1 in every run; --seed draws each round's event
// schedule, solver chain and data-plane jitter. Generating the fleets from
// --seed too would make a run's throughput hang on a few draws of session
// sizes: single fleets of one workload differ by up to 2x in events/s.
const fleets = 4

// qualityRounds is how many rounds every run plays, whatever --seconds
// says, and the rounds decision quality is taken from, so the quality
// metrics of a seed do not depend on the host's speed.
const qualityRounds = 4 * fleets

// scheduleSeed derives round i's schedule seed from the run's seed
// (splitmix64).
func scheduleSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-churn, regional-chaos or fleet-scale")
	seed := fs.Int64("seed", 1, "seed the event schedules derive from")
	seconds := fs.Float64("seconds", 10, "play rounds until this many wall seconds have passed")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from traced rounds")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for digests, spans and decision traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: invalid arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		return 2
	}
	opts := options{sp: sp, seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out,
		fleets: fleets, quality: qualityRounds, scale: 1}
	fmt.Fprintf(stdout, "host: go=%s nproc=%d gomaxprocs=%d workload=%s seed=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), sp.name, *seed)
	res, err := measure(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %14.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure plays rounds until the time is up and at least o.quality rounds
// (o.fleets in a traced run) have run. Round i replays fleet i mod
// o.fleets under a schedule of its own, so a run averages over many
// schedules of a fixed set of fleets. A traced run replays each round
// untraced, then traced. A final round
// replays round 0 again, which must decide exactly as round 0 did. A
// round that fails the correctness gate ends the run: its events are
// counted as failed and no metrics are reported.
func measure(o options) (result, error) {
	res := result{Metrics: map[string]metric{}}
	horizon := o.sp.horizonS * o.scale
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	fail := func(err error, events int) (result, error) {
		res.Failed += events
		res.Correct = false
		res.Metrics = map[string]metric{}
		if res.Attempted == 0 {
			res.Attempted, res.Failed = 1, 1
		}
		return res, err
	}
	// play runs round i and checks its decisions against want, if given.
	play := func(i int, kind roundKind, want *round) (*round, error) {
		r, err := runRound(o.sp, int64(i%o.fleets+1), scheduleSeed(o.seed, i), horizon, kind, o.sabotage)
		if r != nil {
			res.Attempted += r.events
		}
		if err == nil && want != nil {
			err = compareDigests(want.digests, r.digests)
		}
		if err != nil {
			return r, fmt.Errorf("round %d: %w", i, err)
		}
		return r, nil
	}
	// events is what a failed round is charged: the events it pulled.
	events := func(r *round) int {
		if r == nil {
			return 0
		}
		return r.events
	}
	// Decision quality needs o.quality rounds; per-layer figures need only
	// each fleet once.
	least := o.quality
	if o.traced {
		least = o.fleets
	}
	var plain, traced []*round
	for i := 0; i < least || time.Now().Before(deadline); i++ {
		r, err := play(i, timedRound, nil)
		if err != nil {
			return fail(err, events(r))
		}
		plain = append(plain, r)
		if o.traced {
			t, err := play(i, tracedRound, r)
			if err != nil {
				return fail(err, events(t))
			}
			traced = append(traced, t)
		}
	}
	if r, err := play(0, timedRound, plain[0]); err != nil {
		return fail(err, events(r))
	}
	if err := checkDigestFile(o, plain[0]); err != nil {
		// Every decision of the run is suspect, not one round's.
		return fail(err, res.Attempted)
	}
	res.Correct = true
	if o.traced {
		res.Metrics = layerMetrics(plain, traced)
		if err := writeTraceFiles(o, traced[0], res.Metrics); err != nil {
			return fail(err, 0)
		}
		return res, nil
	}
	res.Metrics = endToEnd(plain, o.quality)
	return res, nil
}

// rate is the events retired per wall second over rounds.
func rate(rounds ...*round) float64 {
	var events int
	var wall time.Duration
	for _, r := range rounds {
		events += r.events
		wall += r.wall
	}
	return float64(events) / wall.Seconds()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd reduces the rounds to the end-to-end metrics. Throughput,
// latency and allocation pool the events of every round; set-up time is
// the median over rounds; decision quality is summed over the first nq
// rounds, which every run of a seed plays alike.
func endToEnd(rounds []*round, nq int) map[string]metric {
	var lat []time.Duration
	var setups []float64
	var alloc uint64
	var events int
	var q quality
	for i, r := range rounds {
		lat = append(lat, r.lat...)
		setups = append(setups, r.setup.Seconds())
		alloc += r.allocBytes
		events += r.events
		if i < nq {
			q.add(r.quality)
		}
	}
	return map[string]metric{
		"events_per_s":       {rate(rounds...), "events/s"},
		"event_p50_ms":       {ms(percentile(lat, 0.50)), "ms"},
		"event_p95_ms":       {ms(percentile(lat, 0.95)), "ms"},
		"phi_per_session":    {ratio(q.phiSum, float64(q.phiN)), "phi"},
		"delay_ms":           {ratio(q.delaySum, float64(q.samples)), "ms"},
		"traffic_mbps":       {ratio(q.trafficSum, float64(q.samples)), "Mbps/session"},
		"served_ratio":       {1 - ratio(float64(q.unserved), float64(q.placements)), "ratio"},
		"alloc_kb_per_event": {float64(alloc) / 1024 / float64(events), "KB"},
		"setup_s":            {median(setups), "s"},
	}
}

// layerUnits names the unit of every per-layer metric.
var layerUnits = map[string]string{
	"sim.next_us_per_event":          "us",
	"agrank.calls":                   "count",
	"agrank.ms_per_call":             "ms",
	"agrank.infeasible_ratio":        "ratio",
	"orchestrator.arrive_p50_ms":     "ms",
	"orchestrator.depart_p50_ms":     "ms",
	"orchestrator.fault_p50_ms":      "ms",
	"orchestrator.event_p99_ms":      "ms",
	"orchestrator.tasks_per_event":   "tasks/event",
	"orchestrator.commit_ratio":      "ratio",
	"core.walk_ms_per_task":          "ms",
	"core.busy_ratio":                "ratio",
	"cost.delay_cache_hit_ratio":     "ratio",
	"cost.delay_cache_rebuilds":      "count",
	"cost.recomputes_per_event":      "count/event",
	"shard.snapshot_us_per_task":     "us",
	"shard.commit_us_per_task":       "us",
	"shard.conflict_ratio":           "ratio",
	"faults.orphans":                 "count",
	"faults.evac_reject_ratio":       "ratio",
	"faults.recover_p50_ms":          "ms",
	"confsim.migrations":             "count",
	"confsim.frozen_frames":          "count",
	"assign.cold_start_ms":           "ms",
	"go.gc_cpu_fraction":             "ratio",
	"self.orchestrator_ms_per_event": "ms",
	"self.agrank_ms_per_event":       "ms",
	"telemetry.overhead_ratio":       "ratio",
}

// layerMetrics reduces the traced rounds to the per-layer metrics: the
// median over rounds of each timing, the pooled value of each share, the
// per-kind latency medians over all traced events, the tracing overhead
// as the median over rounds of untraced over traced throughput, and the
// event latency's 99th percentile over the untraced rounds.
func layerMetrics(plain, traced []*round) map[string]metric {
	out := map[string]metric{}
	for name := range traced[0].timings {
		var vs []float64
		for _, r := range traced {
			vs = append(vs, r.timings[name])
		}
		out[name] = metric{median(vs), layerUnits[name]}
	}
	for name := range traced[0].shares {
		var num, den float64
		for _, r := range traced {
			num += r.shares[name].num
			den += r.shares[name].den
		}
		out[name] = metric{ratio(num, den), layerUnits[name]}
	}
	byKind := map[string][]time.Duration{}
	for _, r := range traced {
		for i, e := range r.evs {
			byKind[kindName(e.Kind)] = append(byKind[kindName(e.Kind)], r.lat[i])
		}
	}
	for _, kind := range []string{"arrive", "depart", "fault"} {
		name := "orchestrator." + kind + "_p50_ms"
		out[name] = metric{ms(percentile(byKind[kind], 0.50)), layerUnits[name]}
	}
	var overhead []float64
	var lat []time.Duration
	for i := range plain {
		overhead = append(overhead, rate(plain[i])/rate(traced[i]))
		lat = append(lat, plain[i].lat...)
	}
	out["telemetry.overhead_ratio"] = metric{median(overhead), layerUnits["telemetry.overhead_ratio"]}
	// The 99th percentile is reported here, from the untraced rounds, and
	// not gated: on sub-millisecond events it follows bursts of host
	// contention more than the program (see perfbench/DESIGN.md).
	out["orchestrator.event_p99_ms"] = metric{ms(percentile(lat, 0.99)), layerUnits["orchestrator.event_p99_ms"]}
	return out
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// checkDigestFile compares round 0's decisions with those earlier runs of
// the same binary, workload, seed, fleet count and horizon recorded under
// o.out.
func checkDigestFile(o options, r *round) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, d := range r.digests {
		put(math.Float64bits(d.Phi))
		put(uint64(d.Active))
		put(uint64(d.Commits))
	}
	digest := fmt.Sprintf("%016x %d\n", h.Sum64(), len(r.digests))
	dir := filepath.Join(o.out, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-f%d-x%g-%s", o.sp.name, o.seed, o.fleets, o.scale, hex.EncodeToString(sum[:8])))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil && string(prev) != digest:
		return fmt.Errorf("gate: decision digest %q differs from an earlier run's %q", digest, prev)
	case err == nil:
		return nil
	case os.IsNotExist(err):
		return os.WriteFile(path, []byte(digest), 0o644)
	default:
		return err
	}
}

// writeTraceFiles writes the first traced round's spans and decision trace
// (readable by vcreport -trace-a/-trace-b), and the run's per-layer
// metrics.
func writeTraceFiles(o options, r *round, layers map[string]metric) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.sp.name, o.seed))
	write := func(path string, fill func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fill(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(base+".spans.jsonl", r.tr.writeSpans); err != nil {
		return err
	}
	if err := write(base+".decisions.jsonl", func(w io.Writer) error {
		rec, err := sim.NewRecorder(w)
		if err != nil {
			return err
		}
		for i, e := range r.evs {
			if err := rec.Record(e, r.digests[i]); err != nil {
				return err
			}
		}
		return rec.Flush()
	}); err != nil {
		return err
	}
	return write(base+".layers.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"workload":   o.sp.name,
			"seed":       o.seed,
			"go":         runtime.Version(),
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"layers":     layers,
		})
	})
}
