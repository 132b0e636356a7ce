package compass

import (
	"fmt"
	"strings"

	"compass/internal/core"
	"compass/internal/frontend"
	"compass/internal/guard"
	"compass/internal/machine"
	"compass/internal/mem"
	"compass/internal/osserver"
	"compass/internal/specweb"
	"compass/internal/trace"
)

// GuardConfig tunes run supervision (Options.Guard); see guard.Config for
// fields.
type GuardConfig = guard.Config

// RunSpec is the command-line-level description of a run, the one crash-
// repro bundles carry; see guard.RunSpec. FromSpec turns it into Run's
// arguments.
type RunSpec = guard.RunSpec

// The names the command-line flags and a RunSpec use; "" is the default.
var (
	archNames = map[string]Arch{"": ArchSimple, "simple": ArchSimple, "fixed": ArchFixed,
		"smp": ArchSMP, "ccnuma": ArchCCNUMA, "coma": ArchCOMA}
	placementNames = map[string]mem.Placement{"": PlaceRoundRobin, "round-robin": PlaceRoundRobin,
		"block": PlaceBlock, "first-touch": PlaceFirstTouch}
	schedNames = map[string]core.SchedPolicy{"": SchedFCFS, "fcfs": SchedFCFS, "affinity": SchedAffinity}
)

// FromSpec translates a run description into the arguments of Run — and of
// RunSeedCampaign, which stamps each point's seed. The simulation is a pure
// function of the spec, so a bundled spec replays its failure exactly.
// gcfg is the supervision the run gets; the spec is stamped into it, so
// that a bundle written on failure replays this run.
//
// A spec that asks for something its run would not do is an error, not a
// run that quietly ignores it: a traffic plan on a workload without
// clients, segments or auto-checkpoints on a workload with no boundaries
// to cut at, a machine that cannot be built. Sizes (Requests, Rows, Tx, ...)
// have defaults — zero asks for them, a negative one is an error — and are
// left alone where they do not apply.
func FromSpec(spec RunSpec, gcfg GuardConfig) (Config, Workload, Options, error) {
	fail := func(err error) (Config, Workload, Options, error) { return Config{}, nil, Options{}, err }
	for _, size := range []struct {
		flag string
		n    int
	}{{"cpus", spec.CPUs}, {"nodes", spec.Nodes}, {"agents", spec.Agents}, {"tx", spec.Tx}, {"rows", spec.Rows},
		{"requests", spec.Requests}, {"warmtx", spec.WarmTx}, {"warmreqs", spec.WarmReqs}, {"dirs", spec.Dirs},
		{"n", spec.N}, {"iters", spec.Iters}} {
		if size.n < 0 {
			return fail(fmt.Errorf("compass: -%s %d is negative", size.flag, size.n))
		}
	}
	cfg, err := specConfig(spec)
	if err != nil {
		return fail(err)
	}
	w, err := specWorkload(spec)
	if err != nil {
		return fail(err)
	}
	gcfg.Spec = spec
	o := Options{
		AutoCkptDir: spec.AutoCkptDir,
		Guard:       &gcfg,
		Label:       spec.Workload,
	}
	if err := wireChaos(spec.Chaos, &cfg, &o); err != nil {
		return fail(err)
	}
	return cfg, w, o, nil
}

// wireChaos parses a -chaos specification — comma-separated "block",
// "crashsegment=N", "crashseed=N": the chaos-smoke harness's deterministic
// failure injection — into the machine hook and the options.
func wireChaos(spec string, cfg *Config, o *Options) error {
	scan := func(part, format string, v any) bool {
		_, err := fmt.Sscanf(part, format, v)
		return err == nil
	}
	var (
		block bool
		seed  uint64
	)
	for _, part := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' }) {
		switch {
		case part == "block":
			block = true
		case scan(part, "crashsegment=%d", &o.CrashSegment):
		case scan(part, "crashseed=%d", &seed):
		default:
			return fmt.Errorf("compass: bad -chaos element %q", part)
		}
	}
	if !block && seed == 0 {
		return nil
	}
	cfg.Observe = func(m *machine.Machine) {
		// A host-side panic on every machine, built or restored, whose
		// fault seed is the crash seed (0 = off): a campaign's point with
		// that seed, or a single run under it.
		if seed != 0 && m.Cfg.Faults.Seed == seed {
			panic(fmt.Sprintf("chaos: injected panic for seed%d", seed))
		}
		if block {
			observeBlock(m)
		}
	}
	return nil
}

// observeBlock is the Config.Observe hook that spawns the chaos blocker: a
// process that blocks forever on an empty pipe. With the RTC off the engine
// proves a deadlock; with it on, the run spins on timer ticks until the
// watchdog's deadline trips.
func observeBlock(m *machine.Machine) {
	m.SpawnConnected("chaos-block", func(p *frontend.Proc) {
		t := osserver.For(p)
		r, _ := t.Pipe(16)
		// Nobody ever writes: the read blocks for the rest of the run.
		t.PipeRead(r, 1)
	})
}

func specConfig(spec RunSpec) (Config, error) {
	cfg := DefaultConfig()
	cfg.CPUs, cfg.Nodes = or(spec.CPUs, cfg.CPUs), or(spec.Nodes, cfg.Nodes)
	var ok bool
	if cfg.Arch, ok = archNames[spec.Arch]; !ok {
		return cfg, fmt.Errorf("compass: unknown arch %q", spec.Arch)
	}
	if cfg.Placement, ok = placementNames[spec.Placement]; !ok {
		return cfg, fmt.Errorf("compass: unknown placement %q", spec.Placement)
	}
	if cfg.Scheduler, ok = schedNames[spec.Sched]; !ok {
		return cfg, fmt.Errorf("compass: unknown scheduler %q", spec.Sched)
	}
	cfg.Preemptive = spec.Preempt
	cfg.RTC = spec.RTC
	cfg.Shards = spec.Shards
	cfg.SyncdInterval = spec.Syncd
	cfg.MigrateThreshold = spec.Migrate
	if spec.Faults != "" {
		var err error
		if cfg.Faults, err = ParseFaultSpec(spec.Faults); err != nil {
			return cfg, fmt.Errorf("compass: spec faults: %w", err)
		}
	}
	if spec.Seed != 0 {
		cfg.Faults.Seed = spec.Seed
	}
	return cfg, buildable(cfg)
}

// or is n where the spec set it, else the default.
func or(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

func specWorkload(spec RunSpec) (Workload, error) {
	open := spec.Workload == "specweb" || spec.Workload == "tier3"
	if spec.Load != "" && !open {
		return nil, fmt.Errorf("compass: -load drives the clients of specweb and tier3; %s has none", spec.Workload)
	}
	if spec.Trace != "" && (spec.Workload != "specweb" || spec.Load != "") {
		return nil, fmt.Errorf("compass: -trace is what the trace player of a specweb run without -load plays")
	}
	if (spec.Segments > 1 || spec.AutoCkptDir != "") && spec.Workload != "tpcc" {
		return nil, fmt.Errorf("compass: -segments and -autockpt cut a tpcc run at transaction boundaries; %s has none", spec.Workload)
	}
	if spec.WarmReqs > 0 && spec.Workload == "specweb" && (spec.Load != "" || spec.Trace != "") {
		return nil, fmt.Errorf("compass: -warmreqs adds a warm phase of generated requests; a -load or -trace run plays its own in one phase")
	}
	if spec.Segments > 1 && spec.WarmTx > 0 {
		return nil, fmt.Errorf("compass: -segments and -warmtx both cut the run into phases")
	}
	var lc LoadConfig
	if spec.Load != "" {
		var err error
		if lc, err = ParseLoadSpec(spec.Load); err != nil {
			return nil, fmt.Errorf("compass: spec load: %w", err)
		}
	}
	switch spec.Workload {
	case "tpcc":
		w := DefaultTPCC()
		w.Agents, w.TxPerAgent = or(spec.Agents, w.Agents), or(spec.Tx, w.TxPerAgent)
		switch {
		case spec.Segments > 1:
			return TPCCSegments(w, spec.Segments), nil
		case spec.WarmTx > 0:
			warm := w
			warm.TxPerAgent = spec.WarmTx
			w.Seed++
			return TPCC(warm, w), nil
		}
		return TPCC(w), nil
	case "tpcd":
		return TPCD(specTPCD(spec), QueryScanAgg, true), nil
	case "specweb":
		agents := or(spec.Agents, 4)
		if spec.Load != "" {
			return LoadHTTPD(agents, lc), nil
		}
		w := specSPECWeb(spec)
		switch {
		case spec.Trace != "":
			return SPECWebReplay(agents, agents*2, w, spec.Trace), nil
		case spec.WarmReqs > 0:
			warm := w
			warm.Requests = spec.WarmReqs
			w.Seed++
			// The warm-start study has always played one client a worker.
			return SPECWeb(agents, agents, warm, w), nil
		}
		return SPECWeb(agents, agents*2, w), nil
	case "tier3":
		if spec.Load != "" {
			return LoadTier3(DefaultTier3(), lc), nil
		}
		return Tier3(DefaultTier3(), or(spec.Requests, 120)), nil
	case "sor", "sordsm":
		w := SORConfig{N: or(spec.N, 64), Iters: or(spec.Iters, 6), Procs: or(spec.Agents, 4)}
		if spec.Workload == "sordsm" {
			return SORDSM(w), nil
		}
		return SOR(w), nil
	}
	return nil, fmt.Errorf("compass: unknown workload %q", spec.Workload)
}

func specTPCD(spec RunSpec) TPCDConfig {
	w := DefaultTPCD()
	w.Agents, w.Rows = or(spec.Agents, w.Agents), or(spec.Rows, w.Rows)
	return w
}

func specSPECWeb(spec RunSpec) SPECWebConfig {
	w := DefaultSPECWeb()
	w.Requests, w.Dirs = or(spec.Requests, w.Requests), or(spec.Dirs, w.Dirs)
	return w
}

// SpecTrace is the request trace a specweb run of spec generates for its
// player: what `compassrun trace generate` saves and SPECWebReplay plays back.
func SpecTrace(spec RunSpec) trace.Trace { return specweb.GenerateTrace(specSPECWeb(spec)) }
