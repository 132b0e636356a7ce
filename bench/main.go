// Command bench is the repository's benchmark: host nanoseconds per
// simulated memory reference on four long workloads, with per-layer drives
// and a span trace. See README.md in this directory.
//
// The acceptance driver runs, from the root of a checkout,
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output: one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var stderr io.Writer = os.Stderr

// metricDef declares one metric of BENCHMARK.json. Bound is the share of
// the parent's median an end-to-end metric may worsen by; per-layer
// metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, per workload.
// All time is host time unless the name says sim. The bounds are wide
// because the sandbox is: README, "Run-to-run spread on the sandbox".
var endToEnd = []metricDef{
	{"host_ns_per_ref", "ns", "lower", 0.25},
	{"allocs_per_ref", "count", "lower", 0.20},
	{"alloc_bytes_per_ref", "bytes", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are single-layer metrics: drives (host time of a layer's public
// functions in isolation), exact simulated counts, estimated shares, and
// the host runtime's own cost.
var perLayer = []metricDef{
	{"comm.rendezvous_ns", "ns", "lower", 0},
	{"comm.rendezvous_4fe_ns", "ns", "lower", 0},
	{"comm.rendezvous_spin_ns", "ns", "lower", 0},
	{"comm.scan_ns", "ns", "lower", 0},
	{"frontend.ref_ns", "ns", "lower", 0},
	{"frontend.ref_batch16_ns", "ns", "lower", 0},
	{"frontend.compute_ns", "ns", "lower", 0},
	{"core.fixed_ns_per_ref", "ns", "lower", 0},
	{"core.rmw_ns", "ns", "lower", 0},
	{"core.kcall_ns", "ns", "lower", 0},
	{"core.block_wake_ns", "ns", "lower", 0},
	{"core.refs", "count", "lower", 0},
	{"core.rmw", "count", "lower", 0},
	{"core.ctxswitches", "count", "lower", 0},
	{"core.migrations", "count", "lower", 0},
	{"core.interrupts", "count", "lower", 0},
	{"core.sim_cycles", "cycles", "lower", 0},
	{"core.sim_mcycles_per_s", "Mcycle/s", "higher", 0},
	{"mem.translate_ns", "ns", "lower", 0},
	{"mem.touch_ns", "ns", "lower", 0},
	{"mem.faults", "count", "lower", 0},
	{"cache.access_hit_ns", "ns", "lower", 0},
	{"cache.fill_ns", "ns", "lower", 0},
	{"snoop.access_private_ns", "ns", "lower", 0},
	{"snoop.access_shared_ns", "ns", "lower", 0},
	{"snoop.smp_access_shared_ns", "ns", "lower", 0},
	{"snoop.l1_hit_ratio", "ratio", "higher", 0},
	{"snoop.invalidations", "count", "lower", 0},
	{"directory.access_private_ns", "ns", "lower", 0},
	{"directory.access_shared_ns", "ns", "lower", 0},
	{"directory.l1_hit_ratio", "ratio", "higher", 0},
	{"directory.remote_miss_ratio", "ratio", "lower", 0},
	{"directory.threehop", "count", "lower", 0},
	{"noc.messages", "count", "lower", 0},
	{"coma.access_private_ns", "ns", "lower", 0},
	{"coma.access_shared_ns", "ns", "lower", 0},
	{"event.dispatch_ns", "ns", "lower", 0},
	{"event.window_task_ns", "ns", "lower", 0},
	{"event.tasks", "count", "lower", 0},
	{"event.tasks_per_kref", "count", "lower", 0},
	{"event.windows", "count", "lower", 0},
	{"event.parallel_windows", "count", "higher", 0},
	{"osserver.kreadv_warm_ns", "ns", "lower", 0},
	{"osserver.kreadv_cold_ns", "ns", "lower", 0},
	{"osserver.syscalls", "count", "lower", 0},
	{"dev.interrupts", "count", "lower", 0},
	{"db.pool_hit_ratio", "ratio", "higher", 0},
	{"netstack.request_host_us", "us", "lower", 0},
	{"loadgen.offered", "count", "higher", 0},
	{"loadgen.completed", "count", "higher", 0},
	{"loadgen.failed", "count", "lower", 0},
	{"loadgen.p50_cycles", "cycles", "lower", 0},
	{"loadgen.p99_cycles", "cycles", "lower", 0},
	{"loadgen.late_cycles", "cycles", "lower", 0},
	{"checkpoint.save_s", "s", "lower", 0},
	{"checkpoint.restore_s", "s", "lower", 0},
	{"checkpoint.bytes", "bytes", "lower", 0},
	{"expt.parallel_efficiency", "ratio", "higher", 0},
	{"expt.workers", "count", "higher", 0},
	{"runtime.gc_cpu_frac", "frac", "lower", 0},
	{"runtime.gc_count", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},
	{"accuracy.os_share_pct", "pct", "higher", 0},
	{"accuracy.os_share_err_pp", "pp", "lower", 0},
	{"share.port_core", "frac", "lower", 0},
	{"share.model", "frac", "lower", 0},
	{"share.event", "frac", "lower", 0},
	{"share.block_wake", "frac", "lower", 0},
	{"share.checkpoint", "frac", "lower", 0},
	{"host.unattributed_frac", "frac", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"span.machine_new_self_ms", "ms", "lower", 0},
	{"span.apps_setup_self_ms", "ms", "lower", 0},
	{"span.core_run_warm_self_ms", "ms", "lower", 0},
	{"span.core_run_self_ms", "ms", "lower", 0},
	{"span.checkpoint_save_self_ms", "ms", "lower", 0},
	{"span.checkpoint_restore_self_ms", "ms", "lower", 0},
	{"span.expt_run_self_ms", "ms", "lower", 0},
	{"span.stats_collect_self_ms", "ms", "lower", 0},
	{"span.bench_verify_self_ms", "ms", "lower", 0},
}

// digests.json holds the sim_digest of every workload at full size for the
// seeds the history was recorded with. A speed-only change must leave them
// unchanged; a model change replaces them.
//
//go:embed digests.json
var digestsJSON []byte

func expectedDigest(seed uint64, workload string) string {
	var all map[string]map[string]string
	if json.Unmarshal(digestsJSON, &all) != nil {
		return ""
	}
	return all[fmt.Sprint(seed)][workload]
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the driver reads from the last line of stdout.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is everything one run of one workload measured; history lines and
// -compare inputs are made of these.
type record struct {
	Workload      string             `json:"workload"`
	Reps          int                `json:"reps"`
	Correct       bool               `json:"correct"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	SimCycles     uint64             `json:"sim_cycles"`
	SimDigest     string             `json:"sim_digest"`
	DigestChanged bool               `json:"sim_digest_changed,omitempty"`
	OSSharePct    float64            `json:"os_share_pct"`
	EndToEnd      map[string]summary `json:"end_to_end"`
	// Counts are the exact simulated per-layer counts of the measured phase.
	Counts   map[string]float64 `json:"counts"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

// host describes where a record was measured.
type host struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	HostCores  int    `json:"host_cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// historyLine is one full run: every workload on one commit and seed.
type historyLine struct {
	host
	Time    string `json:"time"`
	Seed    uint64 `json:"seed"`
	Seconds int    `json:"seconds"`
	Quick   bool   `json:"quick,omitempty"`
	// Valid is false when the host had fewer than two cores: the sharded
	// and parallel-sweep workloads then measure only overhead, and
	// -compare refuses the line as a baseline.
	Valid     bool     `json:"valid"`
	Workloads []record `json:"workloads"`
}

type options struct {
	sz      sizes
	quick   bool
	seed    uint64
	seconds time.Duration
	trace   bool
	minReps int
}

// newOptions fixes everything a run's mode decides. A full-size run makes
// at least three reps (four when traced: two untraced, two traced); a
// quick run makes the fewest that still emit every name.
func newOptions(quick bool, seed uint64, seconds int, trace bool) options {
	opt := options{sz: fullSizes(), quick: quick, seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace, minReps: 3}
	if quick {
		opt.sz, opt.seconds, opt.minReps = quickSizes(), 0, 2
	}
	if trace && opt.minReps < 4 {
		opt.minReps = 4
	}
	return opt
}

// driveSeconds is how long each layer drive measures (a millisecond in
// quick mode, where drives only have to emit their names): 28 drives must
// fit a traced run into the driver's time cap beside the reps.
const driveSeconds = 400 * time.Millisecond

const maxReps = 64

// endToEndOf reduces one rep to its end-to-end metric values: the rep is
// the sample, so the spread of a series is run-to-run noise on one input.
func endToEndOf(r rep) map[string]float64 {
	refs := float64(r.Refs)
	return map[string]float64{
		"host_ns_per_ref":     r.nsPerRef(),
		"allocs_per_ref":      float64(r.Host.Mallocs) / refs,
		"alloc_bytes_per_ref": float64(r.Host.AllocBytes) / refs,
		"setup_s":             r.SetupS,
	}
}

// runWorkload runs reps of one workload until opt.seconds of measured
// phase have accumulated. With tracing on, odd reps run under the span
// recorder and the layer drives follow.
func runWorkload(w *workload, opt options, out io.Writer) (record, error) {
	rn := w.new(opt.sz, opt.seed)
	var sp *spans
	if opt.trace {
		sp = newSpans(w.Name)
	}
	var (
		reps     []rep
		traced   []bool
		measured time.Duration
	)
	for len(reps) < maxReps && (len(reps) < opt.minReps || measured < opt.seconds) {
		on := opt.trace && len(reps)%2 == 1
		var r rep
		var err error
		if on {
			sp.do("rep", func() uint64 { r, err = rn.rep(sp); return r.Refs })
		} else {
			r, err = rn.rep(nil)
		}
		if err != nil {
			return record{}, fmt.Errorf("%s rep %d: %w", w.Name, len(reps), err)
		}
		if r.Refs == 0 {
			return record{}, fmt.Errorf("%s rep %d serviced no references", w.Name, len(reps))
		}
		reps = append(reps, r)
		traced = append(traced, on)
		measured += r.Host.Wall
	}

	rec := record{
		Workload: w.Name, Reps: len(reps), SimCycles: reps[0].SimCycles, SimDigest: reps[0].Digest,
		OSSharePct: reps[0].OSSharePct, EndToEnd: map[string]summary{}, Counts: reps[0].Counts,
	}
	for _, r := range reps {
		rec.Attempted += r.Attempted
		rec.Failed += r.Failed
		if r.Digest != rec.SimDigest {
			// The same inputs simulated differently: nothing this rep
			// produced can be trusted.
			fmt.Fprintf(stderr, "%s: sim_digest %s differs from rep 0's %s\n", w.Name, r.Digest, rec.SimDigest)
			rec.Failed += r.Attempted - r.Failed
		}
	}
	rec.Correct = rec.Failed == 0
	if want := expectedDigest(opt.seed, w.Name); !opt.quick && want != "" && want != rec.SimDigest {
		rec.DigestChanged = true
	}

	// End-to-end metrics always come from the untraced reps, one sample a rep.
	series := map[string][]float64{}
	for i, r := range reps {
		if traced[i] {
			continue
		}
		for k, v := range endToEndOf(r) {
			series[k] = append(series[k], v)
		}
	}
	for _, m := range endToEnd {
		rec.EndToEnd[m.Name] = summarize(series[m.Name])
	}
	fmt.Fprintf(out, "# %s host_ns_per_ref by untraced rep: %.1f\n", w.Name, series["host_ns_per_ref"])
	if opt.trace {
		rec.PerLayer = layerMetrics(w, opt, reps, sp, out)
	}
	return rec, nil
}

// driveResults holds each drive's unit cost. Drives do not depend on the
// workload, so a full run measures each once.
var driveResults = map[string]float64{}

// layerMetrics runs the drives and assembles every per-layer metric of a
// traced run, whose even reps ran untraced and odd reps under the recorder.
func layerMetrics(w *workload, opt options, reps []rep, sp *spans, out io.Writer) map[string]float64 {
	pl := map[string]float64{}
	first := reps[0]
	for k, v := range first.Counts {
		pl[k] = v
	}
	pl["core.sim_cycles"] = float64(first.SimCycles)
	pl["accuracy.os_share_pct"] = first.OSSharePct
	if w.PaperOSPct > 0 {
		pl["accuracy.os_share_err_pp"] = math.Abs(first.OSSharePct - w.PaperOSPct)
	}
	pl["expt.parallel_efficiency"] = first.ParallelEff
	pl["expt.workers"] = float64(first.Workers)

	var overhead, wallOff, gcFrac, gcCount, gcPause []float64
	for i, r := range reps {
		if i%2 == 1 {
			// Each traced rep is held against the untraced one just before
			// it, so the host's drift over the run cancels.
			overhead = append(overhead, r.nsPerRef()/reps[i-1].nsPerRef()-1)
			continue
		}
		wallOff = append(wallOff, r.Host.Wall.Seconds())
		gcFrac = append(gcFrac, r.Host.GCCPUFrac)
		gcCount = append(gcCount, float64(r.Host.GCCount))
		gcPause = append(gcPause, float64(r.Host.GCPause.Microseconds())/1e3)
		pl["runtime.heap_peak_mb"] = max(pl["runtime.heap_peak_mb"], r.Host.HeapSysMB)
		pl["runtime.goroutines_peak"] = max(pl["runtime.goroutines_peak"], float64(r.Goroutines))
	}
	wall := median(wallOff)
	// The paper's denominator: simulated cycles per host second. It moves
	// with host_ns_per_ref on one input, and across seeds it also moves with
	// the share of simulated time spent waiting for the disk, so it is
	// reported here and not gated.
	pl["core.sim_mcycles_per_s"] = float64(first.SimCycles) / 1e6 / wall
	pl["runtime.gc_cpu_frac"] = median(gcFrac)
	pl["runtime.gc_count"] = median(gcCount)
	pl["runtime.gc_pause_ms"] = median(gcPause)
	pl["trace.overhead_frac"] = median(overhead)
	if n := pl["loadgen.completed"]; n > 0 {
		pl["netstack.request_host_us"] = wall * 1e6 / n
	}

	dur := driveSeconds
	if opt.quick {
		dur, driveDiv = time.Millisecond, 20
	}
	for _, d := range drives {
		d := d
		if _, done := driveResults[d.Name]; !done {
			sp.do("drive."+d.Name, func() uint64 {
				driveResults[d.Name] = runDrive(d, opt.seed, dur)
				return 1
			})
		}
		pl[d.Name] = driveResults[d.Name]
	}
	pl["checkpoint.bytes"] = float64(ckpt().bytes)

	// Estimated shares of the measured wall: exact count × drive unit cost.
	// A run is serial through the backend, so a faster layer saves at most
	// its share — except on sweep_warm_par, where Workers simulations share
	// the cores and the estimate is divided by the worker count.
	par := 1.0
	if first.Workers > 1 {
		par = float64(first.Workers)
	}
	share := func(ns float64) float64 { return ns / 1e9 / par / wall }
	refs, crossings := float64(first.Refs), float64(first.Crossings)
	batchedRefNs := pl["frontend.ref_batch16_ns"] / pl["frontend.ref_ns"] * pl["core.fixed_ns_per_ref"]
	pl["share.port_core"] = share(crossings*pl["core.fixed_ns_per_ref"] + (refs-crossings)*batchedRefNs)
	miss := 1 - pl["snoop.l1_hit_ratio"]
	modelNs := (1-miss)*pl["snoop.access_private_ns"] + miss*pl["snoop.access_shared_ns"]
	if pl["noc.messages"] > 0 {
		miss = 1 - pl["directory.l1_hit_ratio"]
		modelNs = (1-miss)*pl["directory.access_private_ns"] + miss*pl["directory.access_shared_ns"]
	}
	pl["share.model"] = share(refs * modelNs)
	pl["share.event"] = share(pl["event.tasks"] * pl["event.dispatch_ns"])
	pl["share.block_wake"] = share(pl["core.ctxswitches"] * pl["core.block_wake_ns"])
	if first.Workers > 0 {
		restores := float64(len(opt.sz.SweepBatches))
		pl["share.checkpoint"] = restores * pl["checkpoint.restore_s"] / par / wall
	}
	pl["host.unattributed_frac"] = 1 - pl["share.port_core"] - pl["share.model"] - pl["share.event"] -
		pl["share.block_wake"] - pl["share.checkpoint"]

	self := sp.selfTimes()
	for name, d := range self {
		pl["span."+strings.ReplaceAll(name, ".", "_")+"_self_ms"] = float64(d.Microseconds()) / 1e3
	}
	fmt.Fprintf(out, "# spans of %s (self time, all traced reps and drives)\n", w.Name)
	for _, name := range sp.names() {
		fmt.Fprintf(out, "span %-34s self %10.3f ms\n", name, float64(self[name].Microseconds())/1e3)
	}
	path := filepath.Join(buildDir, "trace_"+w.Name+".json")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "trace:", err)
	} else if err := sp.writeChrome(path); err != nil {
		fmt.Fprintln(stderr, "trace:", err)
	} else {
		fmt.Fprintf(out, "# trace written to %s (open in ui.perfetto.dev or chrome://tracing)\n", path)
	}
	return pl
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// resultOf picks the metrics the run mode reports: end-to-end medians
// without tracing, every per-layer metric with it.
func resultOf(rec record, trace bool) result {
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]value{}}
	if trace {
		for _, m := range perLayer {
			res.Metrics[m.Name] = value{rec.PerLayer[m.Name], m.Unit}
		}
		return res
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = value{rec.EndToEnd[m.Name].Median, m.Unit}
	}
	return res
}

// printRecord prints every metric by name with its unit.
func printRecord(out io.Writer, rec record) {
	fmt.Fprintf(out, "# %s: %d reps, %d/%d operations failed, sim_cycles %d, sim_digest %s\n",
		rec.Workload, rec.Reps, rec.Failed, rec.Attempted, rec.SimCycles, rec.SimDigest)
	if rec.DigestChanged {
		fmt.Fprintf(out, "sim_digest_changed %s\n", rec.Workload)
	}
	for _, m := range endToEnd {
		s := rec.EndToEnd[m.Name]
		fmt.Fprintf(out, "%-14s %-22s %14.6g %-9s q1 %.6g q3 %.6g min %.6g max %.6g n=%d\n",
			rec.Workload, m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	if rec.PerLayer == nil {
		for _, k := range sortedKeys(rec.Counts) {
			fmt.Fprintf(out, "%-14s %-30s %14.6g (exact count)\n", rec.Workload, k, rec.Counts[k])
		}
		return
	}
	for _, m := range perLayer {
		fmt.Fprintf(out, "%-14s %-30s %14.6g %s\n", rec.Workload, m.Name, rec.PerLayer[m.Name], m.Unit)
	}
}

// Everything a run writes lands in one of two places, both relative to the
// checkout root run.sh starts the binary in: traces beside the build, and
// the history of full runs beside the benchmark.
const (
	buildDir    = ".bench_build"
	historyPath = "bench/results/history.jsonl"
)

func hostInfo() host {
	h := host{
		Commit: "unknown", GoVersion: runtime.Version(),
		HostCores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func appendJSONLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run is main without the process exit, so the name test can call it.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run; empty runs all four and appends a history line")
		seed    = fs.Uint64("seed", 1, "the run's only randomness input")
		seconds = fs.Int("seconds", 12, "measured-phase seconds to accumulate per workload")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and layer drives")
		quick   = fs.Bool("quick", false, "run at about a fiftieth of full size (smoke test; times are meaningless)")
		compare = fs.Bool("compare", false, "compare two history files: bench -compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two history files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), out)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	// One process on at most two host cores, default GOGC: the frontends,
	// the backend and the sweep's two workers all share them.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	opt := newOptions(*quick, *seed, *seconds, *trace == 1)

	// One workload is what the driver runs; none means a full run of all
	// four, which is also what the history records.
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{*w}
		// The driver allows one run 180 s. A hang in the simulator (its
		// spin-port loop can lose a wake-up) must end as a failed run, not
		// as a stalled driver.
		watchdog := time.AfterFunc(170*time.Second, func() {
			fmt.Fprintf(os.Stderr, "bench: %s still running after 170 s, giving up\n", w.Name)
			os.Exit(3)
		})
		defer watchdog.Stop()
	}
	full := *name == ""
	h := hostInfo()
	line := historyLine{
		host: h, Time: time.Now().UTC().Format(time.RFC3339), Seed: opt.seed, Seconds: *seconds,
		Quick: opt.quick, Valid: h.HostCores >= 2,
	}
	fmt.Fprintf(out, "# commit %s %s host_cores %d gomaxprocs %d seed %d\n", h.Commit, h.GoVersion, h.HostCores, h.GOMAXPROCS, opt.seed)
	results := map[string]result{}
	var failed []string
	for i := range selected {
		w := &selected[i]
		rec, err := runWorkload(w, opt, out)
		if err != nil {
			return err
		}
		printRecord(out, rec)
		line.Workloads = append(line.Workloads, rec)
		results[w.Name] = resultOf(rec, opt.trace)
		if !rec.Correct {
			failed = append(failed, fmt.Sprintf("%s (%d of %d)", w.Name, rec.Failed, rec.Attempted))
		}
	}
	if full && !opt.quick {
		if err := appendJSONLine(historyPath, line); err != nil {
			return err
		}
		fmt.Fprintf(out, "# appended to %s\n", historyPath)
	}
	// The last line: the one workload's result, or every workload's by name.
	var last any = results
	if !full {
		last = results[*name]
	}
	data, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", data)
	if len(failed) > 0 {
		return fmt.Errorf("operations failed on %s", strings.Join(failed, ", "))
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
